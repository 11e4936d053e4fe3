// Package core implements the paper's primary contribution: GRiP —
// Global Resource-constrained Percolation scheduling (sections 3.2–3.3).
//
// GRiP schedules each node of the program graph in a top-down traversal,
// filling its resources by migrating the highest-priority operations from
// the subgraph it dominates (the Moveable-ops set). Unlike the
// Unifiable-ops technique it approximates, GRiP lets operations move
// partway and stay in intermediate nodes — compaction of the whole
// dominated subgraph happens implicitly — at the cost of possible
// resource barriers, which the scheduler counts so the paper's "barriers
// are rare in practice" claim can be checked empirically.
//
// When used for Perfect Pipelining, the Gapless-move test (section 3.3)
// plus the three scheduling rules guarantee that no permanent
// inter-iteration gaps form, which makes the pipeline converge.
package core

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/ps"
)

// Options control a GRiP scheduling session.
type Options struct {
	// GapPrevention enables the section 3.3 Gapless-move test and
	// suspension rules. Required for Perfect Pipelining convergence;
	// harmless (slightly restrictive) elsewhere.
	GapPrevention bool

	// EmptyPrelude inserts this many empty instructions before the
	// program entry, the paper's mitigation that makes temporary
	// resource barriers impossible (section 3.2). Zero disables it, as
	// the paper recommends in practice.
	EmptyPrelude int

	// Renaming allows the renaming variant of move-op when a plain move
	// is blocked by an output or move-past-read conflict. The SSA-named
	// unwound loops never need it; general programs may.
	Renaming bool

	// TraceNode, when set, receives each node as its scheduling starts
	// together with the current Moveable-ops set in ranked order (used
	// to print Figure 11-style traces).
	TraceNode func(n *graph.Node, moveable []*ir.Op)

	// CrossCheck runs the retained reference implementation of the
	// Moveable-ops scan (a full rescan of the ranked list) next to the
	// incremental candidate structure and panics on the first
	// divergence — picks, the rule-3 suspension bound, and the
	// structure's internal invariants are all compared per pick. A
	// testing hook: it turns every pick into an O(n) recheck.
	CrossCheck bool
}

// maxSteps bounds a run's transformation steps: a non-termination
// guard.
const maxSteps = 20_000_000

// Stats reports what happened during scheduling.
type Stats struct {
	NodesScheduled   int
	Moves            int // successful upward steps (all kinds)
	ArrivedAtTarget  int // migrations that reached the scheduled node
	PartialMoves     int // migrations that stopped early but made progress
	ResourceBarriers int // moves blocked by a full intermediate node
	BarrierOps       int // distinct ops that ever hit a resource barrier
	Suspensions      int // gap-prevention suspensions (rule 1)
	Unsuspensions    int // rule 2 wake-ups
	GaplessRejects   int // moves rejected by the Gapless-move test
	Renames          int
	Picks            int // ops chooseOp returned (parked re-picks skipped)
}

// The scheduler's per-op state lives in bitsets and slices addressed by
// the candidate's rank in pool (the candidate flags) or by the dense op
// index (ir.Op.Index, assigned by deps.Build), so the Figure 10
// while-loop's per-candidate checks are O(1) loads with zero
// steady-state allocation — the paper's efficiency claim depends on the
// Moveable-ops bookkeeping being trivially cheap.
type scheduler struct {
	goctx context.Context // cancellation/deadline signal; checked at checkpoints
	ctx   *ps.Ctx
	pri   *deps.Priority
	opts  Options

	pool   []*ir.Op   // all schedulable ops, highest priority first; static after newScheduler
	byIter [][]*ir.Op // ops per iteration, at index op.Iter+1 (NoIter first)

	// The incremental candidate structure (see candidates.go): class
	// selectors over rank space plus the per-op flags that gate
	// membership, also by rank, maintained at every eligibility
	// transition so a pick is a selector lookup instead of a rescan of
	// pool.
	rankOf     []int32    // op index -> rank in pool, -1 when absent
	opSel      bitset.Set // eligible non-branch candidates
	brSel      bitset.Set // eligible branch candidates
	branches   bitset.Set // the pool's branches, static
	pruned     bitset.Set // permanently ineligible: unmoveable or at/above the frontier
	suspended  bitset.Set
	unmoveable bitset.Set
	triedGen   []int32 // ranks tried in the current generation, restored on bumpGen

	// tried[r] holds the generation rank r was last tried in; a fresh
	// generation invalidates every mark at once (no per-node map).
	tried []int32

	// Parking (park.go, DESIGN.md §6.5): an intrusive list per node of
	// the ops whose re-pick could only repeat their block. parkLink[rank]
	// is 0 for an op that is not parked, else 2 + the rank of the next
	// op filed at the same node (1 ends the list); parkHead[node ID]
	// packs the rank+1 of the first op filed there (low 32 bits) with
	// the deepest witness chain filed there. parkRec[rank] records what
	// a parked op's skipped re-pick reads; it and parkHead are allocated
	// at the first park.
	parkLink  []int32
	parkHead  []uint64
	parkRec   []parkRec
	nParked   int
	nParkedBr int

	// picks and brPicks record the current generation's picks with op
	// room and with branch room for the rule that decides how a woken
	// op rejoins (repicked): one mark per rule-3 bound the generation
	// picked under, so one per suspension at most. pickLimit is the
	// frontier they picked at.
	picks     []pickMark
	brPicks   []pickMark
	pickLimit float64

	// skippedBarriers counts the resource barriers the skipped re-picks
	// of parked branches would have hit (accountBranches); under
	// CrossCheck, refBarriers counts the parked branches the reference
	// scan re-picked, and the two must agree at every generation bump.
	skippedBarriers int
	refBarriers     int

	// maxSuspPos is the rule-3 bound — the largest home position over
	// the suspended ops — maintained on suspension and reset on
	// unsuspension instead of rescanned per pick (valid while suspList
	// is non-empty; see suspendOp for why this is exact).
	maxSuspPos float64

	// ruleCurOp/ruleCurBr resume the pick scan past candidates already
	// skipped by rule 3 in the current suspension epoch. Sound because
	// while suspensions exist nothing can re-qualify a skipped
	// candidate: the graph cannot mutate (rule 2 clears all suspensions
	// on the first successful move, so positions are frozen), the
	// generation cannot advance, the frontier is fixed, and the rule-3
	// bound only grows. Reset whenever the generation bumps.
	ruleCurOp int
	ruleCurBr int

	// refRanked, under Options.CrossCheck, is the retained reference
	// scan's own compacting copy of the ranked list (chooseOpReference).
	// refTried[r] holds the generation the reference last re-picked the
	// parked op at rank r in, and refRepicks the parked ops its latest
	// scan re-picked, which crossCheckPick probes.
	refRanked  []*ir.Op
	refTried   []int32
	refRepicks []*ir.Op

	// prevHook is the graph's op-home hook displaced by this run's
	// candidate maintenance, restored when Schedule returns.
	prevHook func(*ir.Op, *graph.Node)

	suspList   []*ir.Op // the suspended ops, in suspension order
	stats      Stats
	steps      int        // migrate's steps so far; the run fails past stepLimit
	stepLimit  int        // maxSteps; a field so a test can lower it
	barrierSet bitset.Set // by op index
	barrierOps int

	// gen is the retry generation: it advances on events that can
	// unblock previously tried operations (an arrival at the scheduled
	// node, a rule-2 unsuspension, a move out of a full node, any
	// branch move). A tried op leaves the candidate selectors until the
	// generation advances (bumpGen restores it), which keeps the Figure
	// 10 while-loop from re-probing the whole Moveable set after every
	// unrelated move.
	gen int32

	// Gapless-move machinery (section 3.3): per-iteration max-Pos
	// frontiers (condition 3 in O(1) amortized), recomputed once an op
	// of the iteration changes home, and memoized gapless verdicts by op
	// index (from is always the op's home node), each kept while the
	// nodes it read are untouched (gapless.go, DESIGN.md §2.2).
	// witness[op index] is the rank+1 of the filler that proved the
	// verdict through condition 4, 0 otherwise; parking reads the chain
	// of witnesses as its certificate (certify).
	frontiers []iterFrontier
	gapMemo   []memoEntry
	witness   []int32
}

// Schedule runs GRiP over pctx.G. ops must contain every schedulable
// operation (branches included), each with its position in ops as its
// dense index (ops[i].Index == i, which deps.Build(ops) assigns); pri
// ranks them per section 3.4.
//
// The Gapless-move memo keeps a verdict across moves by the nodes it
// read, and rests on two facts of the graphs the unwinder and the
// transformations build:
//   - the non-drain nodes form one chain (each has at most one non-drain
//     successor), and the schedulable ops sit on it and move one edge up
//     it at a time;
//   - a drain is frozen once the move-cj that built it ends: its tree,
//     ops and successors never change again.
//
// Under opts.CrossCheck every verdict and iteration frontier kept from
// an older graph version is recomputed, and a disagreement panics.
//
// ctx bounds the computation: the step loop checks it before each pick,
// so at least once per scheduled node, and returns ctx.Err() — wrapped
// so errors.Is sees context.Canceled or context.DeadlineExceeded —
// abandoning the partial schedule. This is what lets per-job timeouts in
// the batch engine stop the work instead of abandoning the goroutine.
func Schedule(ctx context.Context, pctx *ps.Ctx, ops []*ir.Op, pri *deps.Priority, opts Options) (Stats, error) {
	return newScheduler(ctx, pctx, ops, pri, opts).run()
}

// run schedules every main-chain node top-down and splices out the
// empty rows left behind.
func (s *scheduler) run() (Stats, error) {
	pctx, opts := s.ctx, s.opts
	// newScheduler registered the candidate structure's op-home hook on
	// the graph; restore the previous one on return (graphs outlive a
	// scheduling run).
	defer pctx.G.SetOpHomeHook(s.prevHook)
	if opts.CrossCheck {
		// Extend the cross-check into ps: run the retained reference
		// dependence scans next to every summary-filtered legality test
		// for the duration of this schedule.
		prev := pctx.CrossCheck
		pctx.CrossCheck = true
		defer func() { pctx.CrossCheck = prev }()
	}

	for i := 0; i < opts.EmptyPrelude; i++ {
		pctx.G.InsertBefore(pctx.G.Entry)
	}

	g := pctx.G
	for n := g.Entry; n != nil; {
		if n.Drain {
			break // drains hang off the main chain and are never scheduled
		}
		if err := s.scheduleNode(n); err != nil {
			return s.stats, err
		}
		s.stats.NodesScheduled++
		// Suspensions are positional; restart them for the next node.
		s.clearSuspensions()
		n = n.NonDrainSucc()
	}

	// Remove any empty rows left on the main chain (unfilled prelude
	// slots, drained tails). An empty instruction is a wasted cycle.
	for _, n := range g.MainChain() {
		if g.Has(n) && !n.Drain {
			g.SpliceOutEmpty(n)
		}
	}

	s.stats.Moves = pctx.Moves + pctx.Hoists + pctx.CJMoves
	s.stats.Renames = pctx.Renames
	s.stats.BarrierOps = s.barrierOps
	return s.stats, nil
}

// newScheduler sizes every index-addressed structure by len(ops) and
// ranks the schedulable operations.
func newScheduler(ctx context.Context, pctx *ps.Ctx, ops []*ir.Op, pri *deps.Priority, opts Options) *scheduler {
	n := len(ops)
	s := &scheduler{
		goctx:      ctx,
		ctx:        pctx,
		pri:        pri,
		opts:       opts,
		stepLimit:  maxSteps,
		barrierSet: bitset.New(n),
		suspList:   make([]*ir.Op, 0, n),
	}
	s.pool = make([]*ir.Op, 0, len(ops))
	maxIter := ir.NoIter
	for _, op := range ops {
		if !op.Frozen {
			s.pool = append(s.pool, op)
			if op.Iter > maxIter {
				maxIter = op.Iter
			}
		}
	}
	s.byIter = make([][]*ir.Op, maxIter+2)
	for _, op := range s.pool {
		s.byIter[op.Iter+1] = append(s.byIter[op.Iter+1], op)
	}
	s.frontiers = make([]iterFrontier, maxIter+2)
	s.gapMemo = make([]memoEntry, n)
	pri.Rank(s.pool)
	s.initCandidates(n)
	if opts.CrossCheck {
		s.refRanked = append([]*ir.Op(nil), s.pool...)
		s.refTried = make([]int32, len(s.pool))
	}
	// The structure hears about every op whose home changes — re-homing
	// via branch-move node splits, transient unplacement during moves,
	// renaming compensations — through the graph's op-home hook.
	s.prevHook = pctx.G.SetOpHomeHook(s.opHome)
	return s
}

// scheduleNode is the procedure of Figure 10 (and Figure 12 when gap
// prevention is on): repeatedly choose the best moveable op and migrate
// it toward n until resources run out or nothing can move.
func (s *scheduler) scheduleNode(n *graph.Node) error {
	s.startNode(n)
	if s.opts.TraceNode != nil {
		s.opts.TraceNode(n, s.MoveableSet(n))
	}
	for {
		if s.steps > s.stepLimit {
			return fmt.Errorf("core: exceeded %d steps (non-termination guard)", s.stepLimit)
		}
		// One checkpoint per chosen operation: each round below performs
		// a full migration (many ps steps), so this stays off the inner
		// per-step path while keeping cancellation latency to one
		// migration's worth of work.
		if err := s.goctx.Err(); err != nil {
			return fmt.Errorf("core: schedule interrupted: %w", err)
		}
		opRoom := s.ctx.M.FitsOps(n.OpCount() + 1)
		brRoom := s.ctx.M.FitsBranches(n.BranchCount() + 1)
		if !opRoom && !brRoom {
			return nil
		}
		op := s.chooseOp(n, opRoom, brRoom)
		if s.refRanked != nil {
			// A divergence panics, as the ps reference checks do, so the
			// batch engine reports every CrossCheck failure alike: a
			// *sched.PanicError with its stack.
			if err := s.crossCheckPick(n, opRoom, brRoom, op); err != nil {
				panic(err)
			}
		}
		if op == nil {
			return nil
		}
		s.stats.Picks++
		s.markTried(op)
		s.migrate(n, op)
	}
}

// startNode makes n the scheduling frontier. A fresh generation
// invalidates every tried mark from the previous node at once (the
// map-based version allocated a new map here). An op blocked by a
// producer at n is now blocked by the scheduled region, which pins it
// (recordBlock), and a branch barred by n's full branch slot is no
// longer a barrier, so the ops parked around n wake.
func (s *scheduler) startNode(n *graph.Node) {
	s.bumpGen()
	s.wakeAround(n, &wakeEvent{kind: evAdvance})
}

// chooseOpReference is the retained reference implementation of the
// Moveable-ops pick: a full rescan of the ranked list with every gate
// checked per candidate, compacting permanently-dead entries in place
// exactly as the pre-candidate-structure scheduler did. It runs only
// under Options.CrossCheck (against its own refRanked copy) so the
// randomized equivalence tests can assert the incremental structure
// returns the identical pick sequence.
//
// It replays the scheduler without parking: a parked op it would pick
// is re-picked in place — stamped tried in refTried and listed in
// refRepicks for crossCheckPick to probe — and the scan moves on, as
// the next pick after a no-op re-pick would have. lowestSusp and
// haveSusp are the rule-3 bound, as lowestSuspendedPosRescan computes
// it.
func (s *scheduler) chooseOpReference(n *graph.Node, opRoom, brRoom bool, lowestSusp float64, haveSusp bool) *ir.Op {
	g := s.ctx.G
	limit := n.Pos()
	ranked := s.refRanked
	s.refRepicks = s.refRepicks[:0]
	w := 0
	for i := 0; i < len(ranked); i++ {
		op := ranked[i]
		r := s.rankOf[op.Index]
		if s.unmoveable.Has(int(r)) {
			continue // prune: unmoveable is never cleared
		}
		home := g.NodeOf(op)
		if home == nil || home.Drain {
			ranked[w] = op
			w++
			continue
		}
		pos := home.Pos()
		if pos <= limit {
			continue // prune: at or above the scheduling frontier
		}
		ranked[w] = op
		w++
		if op.IsBranch() {
			if !brRoom {
				continue
			}
		} else if !opRoom {
			continue
		}
		if s.tried[r] == s.gen || s.refTried[r] == s.gen {
			continue
		}
		if s.suspended.Has(int(r)) {
			continue
		}
		if haveSusp && pos <= lowestSusp {
			continue // rule 3: only ops below the lowest suspended op move
		}
		if s.parked(op) {
			s.refTried[r] = s.gen
			s.refRepicks = append(s.refRepicks, op)
			if op.IsBranch() {
				s.refBarriers++
			}
			continue
		}
		w += copy(ranked[w:], ranked[i+1:])
		s.refRanked = ranked[:w]
		return op
	}
	s.refRanked = ranked[:w]
	return nil
}

// lowestSuspendedPosRescan recomputes the rule-3 bound from scratch —
// the reference for the incrementally maintained maxSuspPos.
func (s *scheduler) lowestSuspendedPosRescan() (float64, bool) {
	if len(s.suspList) == 0 {
		return 0, false
	}
	g := s.ctx.G
	low := 0.0
	have := false
	for _, op := range s.suspList {
		if home := g.NodeOf(op); home != nil {
			if p := home.Pos(); !have || p > low {
				low = p
				have = true
			}
		}
	}
	return low, have
}

// crossCheckPick checks, under Options.CrossCheck, that the candidate
// structure and the reference scan agree on the pick, that every parked
// op the reference re-picked on the way would have re-picked to no
// effect, that the incremental rule-3 bound matches a rescan, and that
// the structure's invariants hold. It returns the first disagreement;
// scheduleNode panics with it.
func (s *scheduler) crossCheckPick(n *graph.Node, opRoom, brRoom bool, got *ir.Op) error {
	if err := s.crossCheckScan(n, opRoom, brRoom, got); err != nil {
		return err
	}
	for _, op := range s.refRepicks {
		if err := s.repickIsNoop(n, op); err != nil {
			return err
		}
	}
	return nil
}

// crossCheckScan is crossCheckPick without the re-pick probes: the
// bookkeeping half, which the randomized structure test drives with
// parks that no real dependence block backs.
func (s *scheduler) crossCheckScan(n *graph.Node, opRoom, brRoom bool, got *ir.Op) error {
	low, have := s.lowestSuspendedPosRescan()
	want := s.chooseOpReference(n, opRoom, brRoom, low, have)
	if got != want {
		return fmt.Errorf("core: candidate structure diverged at n%d (opRoom=%v brRoom=%v): picked %v, reference %v",
			n.ID, opRoom, brRoom, got, want)
	}
	if len(s.suspList) > 0 && (!have || low != s.maxSuspPos) {
		return fmt.Errorf("core: incremental rule-3 bound %v, rescan %v (have=%v)", s.maxSuspPos, low, have)
	}
	return s.checkCandidates()
}

func (s *scheduler) clearSuspensions() {
	for _, op := range s.suspList {
		r := s.rankOf[op.Index]
		s.suspended.Remove(int(r))
		s.addRank(r)
	}
	s.suspList = s.suspList[:0]
	s.maxSuspPos = 0
	s.bumpGen()
}

// migrate implements Figure 12's migrate: move op upward one edge at a
// time until it reaches n or is blocked. Each step is ps.StepUp, or
// under Options.Renaming the renaming move-op for a non-branch op at its
// node's root. Node-leaving moves are guarded by the Gapless-move test
// when gap prevention is on; a rejected move suspends the op (rule 1).
// After any successful move while suspensions exist, migration stops
// early so the scheduler re-ranks with the unsuspended operations (rule
// 2).
func (s *scheduler) migrate(n *graph.Node, op *ir.Op) {
	g := s.ctx.G
	progressed := false
	for g.NodeOf(op) != n {
		s.steps++
		if s.steps > s.stepLimit {
			return
		}
		v := g.Where(op)
		cur := v.Node()

		wasFull := !s.ctx.M.FitsOps(cur.OpCount() + 1)

		hoisting := !op.IsBranch() && v != cur.Root
		if !hoisting && s.opts.GapPrevention && op.Iter != ir.NoIter {
			if !s.gaplessMove(cur, op) {
				s.stats.GaplessRejects++
				s.suspendOp(op)
				return
			}
		}
		var blk ps.Block
		if s.opts.Renaming && !hoisting && !op.IsBranch() {
			blk = s.ctx.TryMoveOpUpRenamed(op)
		} else {
			blk = s.ctx.StepUp(op)
		}

		if blk.Kind != ps.BlockNone {
			barrier := s.recordBlock(n, cur, op, blk)
			if progressed {
				s.stats.PartialMoves++
			}
			switch {
			case barrier && op.IsBranch():
				s.maybePark(cur, op, nil)
			case blk.Kind == ps.BlockDep && blk.By != nil && !hoisting && !op.IsBranch() && !s.opts.Renaming:
				s.maybePark(cur, op, blk.By)
			}
			return
		}
		progressed = true
		if wasFull || op.IsBranch() {
			// Leaving a full node can unblock resource-blocked ops;
			// branch moves restructure the chain. Either way, retry.
			s.bumpGen()
		}
		if len(s.suspList) > 0 {
			// Rule 2: a successful move may have made a suspended op's
			// gapless test satisfiable; wake them and re-rank.
			s.stats.Unsuspensions += len(s.suspList)
			s.clearSuspensions()
			s.bumpGen()
			s.stats.PartialMoves++
			return
		}
	}
	s.stats.ArrivedAtTarget++
	s.bumpGen()
}

// recordBlock applies a blocked step's consequences and reports whether
// it counted a resource barrier.
func (s *scheduler) recordBlock(target, cur *graph.Node, op *ir.Op, blk ps.Block) bool {
	switch blk.Kind {
	case ps.BlockResource:
		// Blocked by a full node that is not the scheduling target:
		// the paper's resource barrier.
		if pred := cur.Pred(); pred != nil && pred != target {
			s.stats.ResourceBarriers++
			if !s.barrierSet.Has(op.Index) {
				s.barrierSet.Add(op.Index)
				s.barrierOps++
			}
			return true
		}
	case ps.BlockDep:
		// The op is unmoveable if it is pinned by something that will
		// never move again, or by nothing identifiable.
		if blk.By == nil || s.pins(target, blk.By) {
			s.markUnmoveable(op)
		}
	case ps.BlockStructure:
		// Entry reached or shape limit: nothing more to do for now.
	}
	return false
}

// pins reports whether a dependence block by by pins the blocked op for
// good while target is scheduled: by is a frozen clone, an op already
// marked unmoveable, or an op resting in the scheduled region.
// (bitset.Has is false for rank -1, an op outside the pool.)
func (s *scheduler) pins(target *graph.Node, by *ir.Op) bool {
	if by.Frozen || s.unmoveable.Has(int(s.rank(by))) {
		return true
	}
	home := s.ctx.G.NodeOf(by)
	return home != nil && home.Pos() <= target.Pos()
}

// MoveableSet returns the current Moveable-ops set of n in ranked order:
// every non-frozen op below n not yet marked unmoveable. Exposed for
// tracing and tests.
func (s *scheduler) MoveableSet(n *graph.Node) []*ir.Op {
	g := s.ctx.G
	limit := n.Pos()
	var out []*ir.Op
	for r, op := range s.pool {
		if op.Frozen || s.unmoveable.Has(r) {
			continue
		}
		home := g.NodeOf(op)
		if home == nil || home.Drain {
			continue
		}
		if home.Pos() > limit {
			out = append(out, op)
		}
	}
	return out
}

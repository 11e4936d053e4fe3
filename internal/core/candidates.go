package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/ir"
)

// The incremental Moveable-ops candidate structure.
//
// Ranks are assigned once by deps.Priority and never change, so the
// structure is two flat bitsets (bitset.Set) over rank space — one for
// plain operations, one for branches, so the opRoom/brRoom gates of
// Figure 10 select a sub-structure instead of filtering every
// candidate. An op's rank is a member of its class selector exactly
// when every per-op eligibility flag holds:
//
//	in selector  ⟺  !pruned && !suspended && tried != gen && !parked
//
// with one lazy exception: an op whose home is nil or a drain node is
// dropped from the selector when the pick path encounters it, and the
// graph's op-home hook (Graph.SetOpHomeHook) re-adds it the moment any
// mutation changes its home — so the invariant weakens to "eligible and
// placed in a live node ⟹ in selector", which is what the pick needs.
//
// Every eligibility transition updates the selectors at the event site
// with one word write:
//
//   - pick: markTried removes the op and records it for restore;
//   - retry-generation bump: bumpGen re-adds everything tried in the
//     closing generation (each pick adds at most one entry, so the
//     restore is O(1) amortized per pick);
//   - suspension (rule 1): suspendOp removes the op and folds its home
//     position into the incrementally maintained rule-3 bound;
//   - unsuspension (rule 2 / node advance): clearSuspensions re-adds;
//   - unmoveable marks and frontier crossings are monotone (an op at or
//     above the scheduling frontier can never become eligible again, see
//     chooseOp), so they remove the op and set its pruned bit, which
//     keeps every later restore path from resurrecting it;
//   - parking (park.go) removes an op whose re-pick could only repeat
//     its dependence block or its branch-slot barrier; a wake that its
//     park record says can matter returns it, tried or not as the
//     skipped re-picks would have left it.
//
// Positional gates (the frontier limit and rule 3) are deliberately NOT
// part of the structure: node positions of live candidates only ever
// decrease (ops move up; move-cj gives the continue-side node the
// dissolved node's position), so they are checked against the op's
// current home at pick time, where a failed frontier check prunes
// permanently. The pick itself is then a NextAtLeast word scan that in
// the common case inspects exactly one candidate. Soundness arguments
// in DESIGN.md §6.

// initCandidates sizes and fills the selectors from the freshly ranked
// pool: every pool op starts eligible. rankOf, tried, parkLink and the
// Gapless-move witnesses share one allocation, and so do the
// rank-space bitsets.
func (s *scheduler) initCandidates(idxSpace int) {
	n := len(s.pool)
	words := make([]int32, 2*idxSpace+2*n)
	s.rankOf = words[:idxSpace:idxSpace]
	s.tried = words[idxSpace : idxSpace+n : idxSpace+n]
	s.parkLink = words[idxSpace+n : idxSpace+2*n : idxSpace+2*n]
	s.witness = words[idxSpace+2*n:]
	for i := range s.rankOf {
		s.rankOf[i] = -1
	}
	bitset.Carve(n, &s.opSel, &s.brSel, &s.branches, &s.pruned, &s.suspended, &s.unmoveable)
	s.triedGen = make([]int32, 0, n)
	for r, op := range s.pool {
		s.rankOf[op.Index] = int32(r)
		if op.IsBranch() {
			s.branches.Add(r)
			s.brSel.Add(r)
		} else {
			s.opSel.Add(r)
		}
	}
}

// chooseOp returns the highest-priority op still eligible to move toward
// n: below n, not unmoveable, not suspended, below the lowest suspended
// op (rule 3), not parked, and not already tried since the graph last
// changed. It replaces the per-pick rescan of the whole ranked list:
// candidates come off the class selectors in rank order, so the scan
// only ever touches ops whose eligibility flags all hold, and in the
// steady state returns the very first one. Allocation-free.
func (s *scheduler) chooseOp(n *graph.Node, opRoom, brRoom bool) *ir.Op {
	op := s.scan(n, opRoom, brRoom)
	s.notePick(n, opRoom, brRoom, op)
	return op
}

// scan is chooseOp's selector walk, without the pick record.
func (s *scheduler) scan(n *graph.Node, opRoom, brRoom bool) *ir.Op {
	g := s.ctx.G
	limit := n.Pos()
	haveSusp := len(s.suspList) > 0
	lowestSusp := s.maxSuspPos
	rOp, rBr := -1, -1
	if opRoom {
		rOp = s.opSel.NextAtLeast(s.ruleCurOp)
	}
	if brRoom {
		rBr = s.brSel.NextAtLeast(s.ruleCurBr)
	}
	for rOp >= 0 || rBr >= 0 {
		r, sel := rOp, &s.opSel
		if rOp < 0 || (rBr >= 0 && rBr < rOp) {
			r, sel = rBr, &s.brSel
		}
		op := s.pool[r]
		home := g.NodeOf(op)
		switch {
		case home == nil || home.Drain:
			// Not currently pickable and no flag transition will say
			// when it becomes so; drop it — the graph's op-home hook
			// restores it on the next placement change.
			sel.Remove(r)
		case home.Pos() <= limit:
			// Prune: at or above the scheduling frontier. Operations
			// only ever move up while the frontier only moves down, so
			// this op can never become eligible again.
			sel.Remove(r)
			s.pruned.Add(r)
		case haveSusp && home.Pos() <= lowestSusp:
			// Rule 3: only ops below the lowest suspended op move.
			// Positional and temporary — the op stays eligible, but
			// within this suspension epoch it can never re-qualify, so
			// later picks resume past it (see ruleCurOp/ruleCurBr).
			if sel == &s.opSel {
				s.ruleCurOp = r + 1
			} else {
				s.ruleCurBr = r + 1
			}
		default:
			return op
		}
		if sel == &s.opSel {
			rOp = s.opSel.NextAtLeast(r + 1)
		} else {
			rBr = s.brSel.NextAtLeast(r + 1)
		}
	}
	return nil
}

// addRank restores the selector membership of the op at rank r when
// every eligibility flag holds. Bitset adds are idempotent.
func (s *scheduler) addRank(r int32) {
	if s.pruned.Has(int(r)) || s.suspended.Has(int(r)) || s.tried[r] == s.gen || s.parkLink[r] != 0 {
		return
	}
	if s.pool[r].IsBranch() {
		s.brSel.Add(int(r))
	} else {
		s.opSel.Add(int(r))
	}
}

// opHome is the graph's op-home hook: op left from, or entered its
// home when from is nil. The parked ops whose records the event can
// concern hear it first (DESIGN.md §6.5). Then, for a pool op, its
// iteration's frontier is marked for recompute and op rejoins its
// selector if eligible; ops outside the pool (frozen drain clones,
// renaming compensations, ops of a different allocator) are
// identity-checked out by rank.
func (s *scheduler) opHome(op *ir.Op, from *graph.Node) {
	switch {
	case s.nParked == 0:
	case from != nil:
		s.wakeAround(from, &wakeEvent{kind: evDepart, x: op})
	default:
		s.wakeArrival(op, s.ctx.G.NodeOf(op))
	}
	if r := s.rank(op); r >= 0 {
		s.frontiers[op.Iter+1].ver = 0
		s.addRank(r)
	}
}

// selRemove drops rank r from its class selector (no-op when absent).
func (s *scheduler) selRemove(r int32) {
	if s.pool[r].IsBranch() {
		s.brSel.Remove(int(r))
	} else {
		s.opSel.Remove(int(r))
	}
}

// markTried records that op was handed to migrate in the current retry
// generation: it leaves the selectors now and returns on the next
// generation bump. op must be in the pool.
func (s *scheduler) markTried(op *ir.Op) {
	r := s.rankOf[op.Index]
	s.tried[r] = s.gen
	s.selRemove(r)
	s.triedGen = append(s.triedGen, r)
}

// bumpGen starts a new retry generation, which invalidates every tried
// mark at once: the ops tried in the closing generation rejoin the
// selectors (unless some other flag keeps them out). The closing
// generation's skipped branch re-picks are counted first.
func (s *scheduler) bumpGen() {
	s.accountBranches()
	s.gen++
	for _, r := range s.triedGen {
		s.addRank(r)
	}
	s.triedGen = s.triedGen[:0]
	s.picks = s.picks[:0]
	s.brPicks = s.brPicks[:0]
	s.ruleCurOp, s.ruleCurBr = 0, 0
}

// suspendOp applies rule 1 to op: it leaves the candidate set until the
// next unsuspension, and its home position folds into the incrementally
// maintained rule-3 bound. Maintaining the max here is exact because the
// graph cannot change while suspensions exist: every successful move
// immediately wakes all suspended ops (rule 2, see migrate), so between
// a suspension and the next unsuspension no committed mutation can move
// a suspended op's home. op must be in the pool.
func (s *scheduler) suspendOp(op *ir.Op) {
	r := s.rankOf[op.Index]
	s.suspended.Add(int(r))
	s.suspList = append(s.suspList, op)
	s.selRemove(r) // already out via markTried when reached from migrate
	s.stats.Suspensions++
	if home := s.ctx.G.NodeOf(op); home != nil {
		if p := home.Pos(); len(s.suspList) == 1 || p > s.maxSuspPos {
			s.maxSuspPos = p
		}
	}
	if len(s.suspList) == 1 {
		// A fresh suspension epoch: the resume cursors are already 0
		// (every epoch end bumps the generation), but make the epoch
		// boundary explicit rather than rely on it.
		s.ruleCurOp, s.ruleCurBr = 0, 0
	}
}

// markUnmoveable takes op out of the candidate set permanently: the
// pruned bit keeps every restore path (generation bumps, unsuspension,
// op-home events) from resurrecting it. Ops that op blocks now have a
// pinned blocker (recordBlock), so the ones parked on it wake. op must
// be in the pool.
func (s *scheduler) markUnmoveable(op *ir.Op) {
	r := s.rankOf[op.Index]
	s.unmoveable.Add(int(r))
	s.pruned.Add(int(r))
	s.selRemove(r)
	s.wakeAround(s.ctx.G.NodeOf(op), &wakeEvent{kind: evUnmoveable, x: op, rank: r})
}

// checkCandidates cross-checks the selector invariants against a full
// recomputation (the candidate-structure analogue of graph.Validate's
// cached-count recounts): membership implies every eligibility flag,
// and an eligible op placed in a live node must be a member. It tests
// 64 ranks per word: the flags and selectors are bitsets over rank
// space, and the tried stamps and park links fold into two masks as
// they are read. Only an eligible rank missing from its selector needs
// its home. The same pass counts the parked ops for checkParked. The
// error names the lowest failing rank and the first check it fails in
// the switch's order, as a per-rank loop would. Test and CrossCheck use
// only.
func (s *scheduler) checkCandidates() error {
	g := s.ctx.G
	n := len(s.pool)
	opSel, brSel, br := s.opSel.Words(), s.brSel.Words(), s.branches.Words()
	pruned, susp, unm := s.pruned.Words(), s.suspended.Words(), s.unmoveable.Words()
	gen, parked, branches := s.gen, 0, 0
	for w := range br {
		base := w << 6
		end := min(base+64, n)
		stamps, links := s.tried[base:end], s.parkLink[base:end]
		links = links[:len(stamps)]
		var tried, park uint64
		for j, t := range stamps {
			if t == gen {
				tried |= 1 << j
			}
			if links[j] != 0 {
				park |= 1 << j
			}
		}
		parked += bits.OnesCount64(park)
		branches += bits.OnesCount64(park & br[w])
		all := ^uint64(0)
		if end-base < 64 {
			all = 1<<(end-base) - 1
		}
		inSel := opSel[w]&^br[w] | brSel[w]&br[w]
		eligible := all &^ (pruned[w] | susp[w] | tried | park)
		both := opSel[w] & brSel[w]
		inelig := inSel &^ eligible
		notPruned := unm[w] &^ pruned[w]
		bad := both | inelig | notPruned
		var missing uint64
		for m := eligible &^ inSel; m != 0; m &= m - 1 {
			bit := m & -m
			if bad != 0 && bit > bad&-bad {
				break // a lower rank already fails
			}
			if home := g.NodeOf(s.pool[base+bits.TrailingZeros64(m)]); home != nil && !home.Drain {
				missing = bit
				break
			}
		}
		if bad |= missing; bad == 0 {
			continue
		}
		bit := bad & -bad
		r := base + bits.TrailingZeros64(bad)
		op := s.pool[r]
		class := "op"
		if op.IsBranch() {
			class = "branch"
		}
		switch {
		case both&bit != 0:
			return fmt.Errorf("core: rank %d (%s) in both selectors", r, class)
		case inelig&bit != 0:
			return fmt.Errorf("core: rank %d (%s %v) in %s selector but ineligible (pruned=%v suspended=%v tried=%v parked=%v)",
				r, class, op, class, pruned[w]&bit != 0, susp[w]&bit != 0, tried&bit != 0, park&bit != 0)
		case missing == bit:
			return fmt.Errorf("core: rank %d (%s %v) eligible and placed at n%d but missing from %s selector",
				r, class, op, g.NodeOf(op).ID, class)
		default:
			return fmt.Errorf("core: rank %d (%s %v) unmoveable but not pruned", r, class, op)
		}
	}
	return s.checkParked(parked, branches)
}

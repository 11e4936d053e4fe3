package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/ps"
)

// buildRandomChain builds a main chain of nNodes nodes, each holding one
// to three operations with roughly one branch op in five, and returns a
// scheduler over it with the reference scan retained (CrossCheck).
func buildRandomChain(rng *rand.Rand, nNodes int) (*scheduler, []*graph.Node, []*ir.Op) {
	al := ir.NewAlloc()
	g := graph.New(al)
	var ops []*ir.Op
	var tail *graph.Node
	origin := 0
	mk := func() *ir.Op {
		op := &ir.Op{ID: al.OpID(), Origin: origin, Iter: 0, Kind: ir.Const,
			Dst: al.Reg(), Imm: int64(origin)}
		origin++
		ops = append(ops, op)
		return op
	}
	for j := 0; j < nNodes; j++ {
		tail = graph.AppendOp(g, tail, mk())
		for k := rng.Intn(3); k > 0; k-- {
			g.AddOp(mk(), tail.Root)
		}
	}
	// Grow a loop-exit-style branch on roughly every third node: the
	// conditional jump falls through to the chain successor, so the
	// branch-class selector sees real candidates (branches never move in
	// this driver — migration moves them only via the CJ machinery).
	chain := g.MainChain()
	for j, n := range chain {
		if rng.Intn(3) != 0 {
			continue
		}
		var next *graph.Node
		if j+1 < len(chain) {
			next = chain[j+1]
		}
		cj := &ir.Op{ID: al.OpID(), Origin: origin, Iter: 0, Kind: ir.CJ,
			Src: [2]ir.Reg{al.Reg()}, Imm: 10, BImm: true, Rel: ir.Lt}
		origin++
		ops = append(ops, cj)
		leaf := graph.ContinueLeaf(n)
		g.RetargetLeaf(leaf, nil)
		g.InsertBranchAtLeaf(leaf, cj, nil, next)
	}
	ddg := deps.Build(ops)
	pctx := ps.NewCtx(g, machine.New(4), nil)
	pctx.D = ddg
	s := newScheduler(context.Background(), pctx, ops, deps.NewPriority(ddg),
		Options{CrossCheck: true})
	return s, g.MainChain(), ops
}

// TestCandidatesRandomMutations drives thousands of random mutation
// sequences — picks under random room gates, upward op moves,
// suspensions and unsuspensions, unmoveable marks, tried-generation
// bumps, frontier advances, parks and wakes — against schedulers with
// the reference scan retained, asserting after every pick that the
// incremental candidate structure returns the identical op, that the
// incremental rule-3 bound matches a rescan, that every woken op
// rejoins tried exactly when the reference re-picked it, that the
// skipped branch re-picks counted as barriers match the reference's at
// every generation bump, and that the structure invariants
// (checkCandidates, with the park lists) and the graph's own
// cached-state invariants (graph.Validate) hold.
func TestCandidatesRandomMutations(t *testing.T) {
	sequences := 400
	if testing.Short() {
		sequences = 60
	}
	for seq := 0; seq < sequences; seq++ {
		s := runRandomMutations(t, seq, func(s *scheduler, step, action int) {
			if err := s.checkCandidates(); err != nil {
				t.Fatalf("seq %d step %d (before action %d): %v", seq, step, action, err)
			}
		})
		if err := s.checkCandidates(); err != nil {
			t.Fatalf("seq %d: final: %v", seq, err)
		}
		if err := s.ctx.G.Validate(); err != nil {
			t.Fatalf("seq %d: final: %v", seq, err)
		}
	}
}

// runRandomMutations runs random mutation sequence seq, 250 steps, and
// calls before ahead of every action; it returns the scheduler in its
// final state.
//
// The mutation grammar mirrors the scheduler's real event structure:
// operations only move upward (toward smaller positions), the frontier
// only advances, and the graph does not mutate while suspensions are
// live — rule 2 guarantees exactly that, and both the incremental
// rule-3 bound and the rule-3 resume cursors rely on it. An op or
// branch parks only where the scheduler parks one: right after its
// pick in the current generation, or before any pick of a fresh
// generation with room for its class (the mid-migration bumpGen case).
// Its park record is random, and so are the events the wakes pass: a
// departure or arrival of a random op, an unmoveable mark or a node
// advance, around a random node. No real block backs these parks, so
// the picks are checked with crossCheckScan, which leaves out the
// probes of the re-picks.
func runRandomMutations(t *testing.T, seq int, before func(s *scheduler, step, action int)) *scheduler {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seq)))
	s, chain, ops := buildRandomChain(rng, 4+rng.Intn(12))
	g := s.ctx.G
	fi := 0
	s.startNode(chain[fi])
	gen := s.gen
	// An op-room and a branch-room pick happened in generation gen.
	genPicked, genPickedBr := false, false
	pick := func() {
		n := chain[fi]
		opRoom, brRoom := rng.Intn(2) == 0, rng.Intn(2) == 0
		if !opRoom && !brRoom {
			opRoom = true
		}
		if s.gen != gen {
			gen, genPicked, genPickedBr = s.gen, false, false
		}
		genPicked = genPicked || opRoom
		genPickedBr = genPickedBr || brRoom
		got := s.chooseOp(n, opRoom, brRoom)
		if err := s.crossCheckScan(n, opRoom, brRoom, got); err != nil {
			if got != nil {
				inRef := false
				for _, o := range s.refRanked {
					if o == got {
						inRef = true
					}
				}
				r := int(s.rankOf[got.Index])
				home := g.NodeOf(got)
				t.Logf("got: rank=%d frozen=%v inRef=%v pruned=%v susp=%v tried=%v home=%v limit=%v susps=%d",
					r, got.Frozen, inRef, s.pruned.Has(r), s.suspended.Has(r),
					s.tried[r] == s.gen, home, n.Pos(), len(s.suspList))
				if home != nil {
					t.Logf("got home pos=%v drain=%v", home.Pos(), home.Drain)
				}
			}
			t.Fatalf("seq %d: %v", seq, err)
		}
		if got != nil && rng.Intn(4) > 0 {
			s.markTried(got)
		}
	}
	for step := 0; step < 250; step++ {
		op := ops[rng.Intn(len(ops))]
		r := s.rankOf[op.Index]
		suspActive := len(s.suspList) > 0
		action := rng.Intn(11)
		before(s, step, action)
		switch action {
		case 0, 1, 2, 3:
			pick()
		case 4: // upward move: the only direction migration takes
			if suspActive || op.IsBranch() {
				pick()
				break
			}
			home := g.NodeOf(op)
			if home == nil || home.OpCount() <= 1 {
				break
			}
			hi := 0
			for hi < len(chain) && chain[hi] != home {
				hi++
			}
			if hi == 0 || hi >= len(chain) {
				break
			}
			g.MoveOp(op, chain[rng.Intn(hi)].Root)
		case 5:
			if !s.suspended.Has(int(r)) && !s.parked(op) && g.NodeOf(op) != nil {
				s.suspendOp(op)
			}
		case 6:
			if suspActive {
				s.clearSuspensions()
			} else {
				s.bumpGen()
			}
		case 7:
			// The scheduler marks only the op it migrates, never a
			// parked one. A parked branch marked after the
			// reference re-picked it would leave its barrier
			// uncounted, a case no schedule produces.
			if !op.IsBranch() || !s.parked(op) {
				s.markUnmoveable(op)
			}
		case 8: // frontier advance (between-node: suspensions cleared first)
			if fi+1 < len(chain) {
				if suspActive {
					s.clearSuspensions()
				}
				// Sometimes past a node, as the frontier passes a
				// node off the main chain: an op parked there is left
				// above the frontier, and must not rejoin as tried.
				fi++
				if fi+1 < len(chain) && rng.Intn(4) == 0 {
					fi++
				}
				s.startNode(chain[fi])
			}
		case 9: // park, where the scheduler would, with a random record
			home := g.NodeOf(op)
			picked := genPicked
			if op.IsBranch() {
				picked = genPickedBr
			}
			fresh := (s.gen != gen || !picked) && s.tried[r] != s.gen
			if home == nil || home.Drain || s.parked(op) ||
				s.pruned.Has(int(r)) || s.suspended.Has(int(r)) || home.Pos() <= chain[fi].Pos() ||
				(s.tried[r] != s.gen && !fresh) {
				pick()
				break
			}
			rec := parkRec{blocker: -1, regs: rng.Uint64() & rng.Uint64(), depth: uint8(rng.Intn(3)),
				term: uint8(rng.Intn(4)), flags: uint8(rng.Intn(8))}
			if !op.IsBranch() {
				rec.blocker = int32(rng.Intn(len(s.pool)))
			}
			s.park(r, home, rec)
		case 10: // an event around a random node
			n, x := chain[rng.Intn(len(chain))], ops[rng.Intn(len(ops))]
			switch rng.Intn(4) {
			case 0:
				s.wakeAround(n, &wakeEvent{kind: evDepart, x: x})
			case 1:
				s.wakeArrival(x, n)
			case 2:
				s.wakeAround(n, &wakeEvent{kind: evUnmoveable, x: x, rank: s.rank(x)})
			default:
				s.wakeAround(n, &wakeEvent{kind: evAdvance})
			}
		}
	}
	return s
}

// auditPerRank is checkCandidates as a per-rank loop, each flag probed
// on its own, with the park counts tallied in the same loop: the
// reference the word-parallel audit must agree with.
func auditPerRank(s *scheduler) error {
	g := s.ctx.G
	parked, branches := 0, 0
	for r, op := range s.pool {
		inSel := s.opSel.Has(r)
		class := "op"
		if op.IsBranch() {
			inSel = s.brSel.Has(r)
			class = "branch"
		}
		if s.opSel.Has(r) && s.brSel.Has(r) {
			return fmt.Errorf("core: rank %d (%s) in both selectors", r, class)
		}
		isParked := s.parkLink[r] != 0
		eligible := !s.pruned.Has(r) && !s.suspended.Has(r) && s.tried[r] != s.gen && !isParked
		if inSel && !eligible {
			return fmt.Errorf("core: rank %d (%s %v) in %s selector but ineligible (pruned=%v suspended=%v tried=%v parked=%v)",
				r, class, op, class, s.pruned.Has(r), s.suspended.Has(r), s.tried[r] == s.gen, isParked)
		}
		if eligible && !inSel {
			if home := g.NodeOf(op); home != nil && !home.Drain {
				return fmt.Errorf("core: rank %d (%s %v) eligible and placed at n%d but missing from %s selector",
					r, class, op, home.ID, class)
			}
		}
		if s.unmoveable.Has(r) && !s.pruned.Has(r) {
			return fmt.Errorf("core: rank %d (%s %v) unmoveable but not pruned", r, class, op)
		}
		if isParked {
			parked++
			if op.IsBranch() {
				branches++
			}
		}
	}
	return s.checkParked(parked, branches)
}

// TestCandidateAuditMatchesPerRank takes the states along the random
// mutation sequences and corrupts each one in a single way: a selector
// bit flipped, a rank in both selectors, a branch moved into the op
// selector, a pruned or suspended bit flipped, a tried stamp set or
// cleared, a park link set, or an unmoveable bit set on an unpruned
// rank. On every such state the word-parallel checkCandidates must
// return exactly what auditPerRank returns, and on the uncorrupted
// states both must pass. Every kind of corruption must fail somewhere,
// so the comparison is not vacuous.
func TestCandidateAuditMatchesPerRank(t *testing.T) {
	sequences := 150
	if testing.Short() {
		sequences = 30
	}
	const kinds = 9
	failed := make([]int, kinds)
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(1000 + seq)))
		runRandomMutations(t, seq, func(s *scheduler, step, _ int) {
			sets := []bitset.Set{s.opSel, s.brSel, s.pruned, s.suspended, s.unmoveable}
			saved := make([][]uint64, len(sets))
			for i, set := range sets {
				saved[i] = slices.Clone(set.Words())
			}
			tried, parkLink := slices.Clone(s.tried), slices.Clone(s.parkLink)
			restore := func() {
				for i, set := range sets {
					copy(set.Words(), saved[i])
				}
				copy(s.tried, tried)
				copy(s.parkLink, parkLink)
			}
			compare := func(what string) bool {
				t.Helper()
				got, want := s.checkCandidates(), auditPerRank(s)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seq %d step %d, %s: word pass says %v, per-rank audit %v", seq, step, what, got, want)
				}
				return got != nil
			}
			if compare("uncorrupted") {
				t.Fatalf("seq %d step %d: the uncorrupted state fails the audit", seq, step)
			}
			flip := func(set bitset.Set, r int) {
				if set.Has(r) {
					set.Remove(r)
				} else {
					set.Add(r)
				}
			}
			for k := 0; k < kinds; k++ {
				r := rng.Intn(len(s.pool))
				switch k {
				case 0:
					flip(s.opSel, r)
				case 1:
					flip(s.brSel, r)
				case 2:
					s.opSel.Add(r)
					s.brSel.Add(r)
				case 3:
					br := s.branches.NextAtLeast(r)
					if br < 0 {
						br = s.branches.NextAtLeast(0)
					}
					if br < 0 {
						continue
					}
					s.brSel.Remove(br)
					s.opSel.Add(br)
				case 4:
					flip(s.pruned, r)
				case 5:
					flip(s.suspended, r)
				case 6:
					if s.tried[r] == s.gen {
						s.tried[r] = s.gen - 1
					} else {
						s.tried[r] = s.gen
					}
				case 7:
					if s.parkLink[r] != 0 {
						continue
					}
					s.parkLink[r] = 1
				case 8:
					if s.pruned.Has(r) {
						continue
					}
					s.unmoveable.Add(r)
				}
				if compare(fmt.Sprintf("corruption %d at rank %d", k, r)) {
					failed[k]++
				}
				restore()
			}
		})
	}
	for k, n := range failed {
		if n == 0 {
			t.Errorf("corruption %d never failed the audit", k)
		}
	}
}

// TestScheduleCrossCheck runs full schedules — the real event stream of
// migrations, node splits, suspensions, and renaming — with the
// reference scan cross-checking every pick.
func TestScheduleCrossCheck(t *testing.T) {
	for _, fus := range []int{2, 4} {
		ctx, ops, pri := buildStraightLine(48, fus)
		if _, err := Schedule(context.Background(), ctx, ops, pri,
			Options{CrossCheck: true}); err != nil {
			t.Fatalf("fus=%d: %v", fus, err)
		}
		if err := ctx.G.Validate(); err != nil {
			t.Fatalf("fus=%d: %v", fus, err)
		}
	}
	// Gap prevention on an interleaved-iteration chain drives the
	// suspension machinery (rules 1–3) through the cross-checked path.
	pctx, s, _ := buildIterChain(32, 8, 2)
	pctx.G.SetOpHomeHook(s.prevHook) // discard the helper's scheduler
	ops := make([]*ir.Op, 0, len(s.pool))
	ops = append(ops, s.pool...)
	if _, err := Schedule(context.Background(), pctx, ops, s.pri,
		Options{GapPrevention: true, CrossCheck: true}); err != nil {
		t.Fatal(err)
	}
	if err := pctx.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossCheckPickDivergencePanics clears one eligible op's selector
// bit behind the structure's back. Under CrossCheck the next pick then
// diverges from the reference scan, and scheduleNode must panic with
// the divergence, the failure format of the ps reference checks.
func TestCrossCheckPickDivergencePanics(t *testing.T) {
	pctx, ops, pri := buildStraightLine(8, 2)
	s := newScheduler(context.Background(), pctx, ops, pri,
		Options{CrossCheck: true})
	defer pctx.G.SetOpHomeHook(s.prevHook)
	entry := pctx.G.Entry
	s.bumpGen()
	op := s.chooseOp(entry, true, true)
	if op == nil || op.IsBranch() {
		t.Fatalf("scenario: want an eligible plain op below the entry, got %v", op)
	}
	s.opSel.Remove(int(s.rankOf[op.Index]))

	var returned error
	recovered := func() (v any) {
		defer func() { v = recover() }()
		returned = s.scheduleNode(entry)
		return nil
	}()
	err, ok := recovered.(error)
	if !ok || !strings.Contains(err.Error(), "candidate structure diverged") {
		t.Fatalf("scheduleNode panicked with %v and returned %v; want a panic with the pick divergence", recovered, returned)
	}
}

// BenchmarkChooseOp measures the incremental pick with its per-pick
// maintenance (markTried removal, generation bump restore) over a large
// Moveable set — the operation the old implementation performed as a
// full ranked rescan.
func BenchmarkChooseOp(b *testing.B) {
	bench := func(b *testing.B, suspend bool) {
		pctx, ops, pri := buildStraightLine(2048, 8)
		s := newScheduler(context.Background(), pctx, ops, pri, Options{})
		entry := pctx.G.Entry
		s.bumpGen()
		if suspend {
			s.suspendOp(ops[64])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := s.chooseOp(entry, true, true)
			if op == nil {
				s.bumpGen()
				continue
			}
			s.markTried(op)
		}
	}
	// steady: every pick returns the first selector member.
	b.Run("steady", func(b *testing.B) { bench(b, false) })
	// suspended: rule 3 gates the picks; the resume cursors amortize the
	// skip over the suspension epoch.
	b.Run("suspended", func(b *testing.B) { bench(b, true) })
}

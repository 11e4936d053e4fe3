package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/ps"
)

// Parking: dependence-blocked candidates leave the selectors until
// something their block read changes (DESIGN.md §6.5).
//
// Under gap prevention every arrival and every rule-2 wake-up bumps the
// retry generation, which hands every tried op back to chooseOp. Most
// of them are still blocked by the same producer, so their re-pick runs
// the Gapless-move test and a move-op probe only to end where it began:
// a tried mark and nothing else. A parked op skips those re-picks. It
// sits on an intrusive list filed under its home node, and the
// op-home hook, markUnmoveable and the node advance wake the lists
// around the nodes whose state the block and its Gapless-move
// certificate read — the register scoreboard's stall-and-wake, keyed by
// node instead of by register.

// maxWitnessDepth bounds the condition-4 witness chains that certify a
// parked op's Gapless-move verdict: a deeper chain would make every
// wake walk further up the chain, so such an op is simply not parked.
const maxWitnessDepth = 8

// pickMark folds the current generation's picks that had op room under
// one rule-3 bound: hw is the largest rank they returned, len(pool) for
// a pick that found nothing. The marks are the whole pick history the
// rejoin rule needs (see repicked).
type pickMark struct {
	bound float64 // rule-3 bound of the picks; -Inf while nothing is suspended
	hw    int32
}

// maybePark parks op after its migration step out of cur ended in a
// move-op dependence block that left it moveable, when a re-pick could
// only repeat that block: the Gapless-move verdict that let the step
// run must be certified by state the wakes watch. The caller has
// checked the step itself: op is a plain op at cur's root, the probe
// was TryMoveOpUp without renaming, and the block names its producer.
func (s *scheduler) maybePark(cur *graph.Node, op *ir.Op) {
	if s.unmoveable.Has(op.Index) {
		return
	}
	depth := 0
	if s.opts.GapPrevention && op.Iter != ir.NoIter {
		d, ok := s.witnessDepth(cur, op, 0)
		if !ok {
			return
		}
		depth = d
	}
	s.park(op, cur, depth)
}

// park files op under home with a witness chain depth nodes deep. The
// op leaves its selector: it is usually out already (markTried), but a
// mid-migration bumpGen (after a step out of a full node) re-adds the
// op being migrated.
func (s *scheduler) park(op *ir.Op, home *graph.Node, depth int) {
	r := s.rankOf[op.Index]
	s.selRemove(op)
	if home.ID >= len(s.parkHead) {
		// Sized at the first park; node splits keep issuing IDs.
		s.parkHead = append(s.parkHead, make([]uint64, s.ctx.G.NodeIDBound()-len(s.parkHead))...)
	}
	w := s.parkHead[home.ID]
	s.parkLink[r] = int32(w) + 1 // the old head's rank+1, plus one: 1 ends the list
	if d := uint64(depth); d > w>>32 {
		w = d << 32
	}
	s.parkHead[home.ID] = w&^math.MaxUint32 | uint64(r+1)
	s.nParked++
}

// parked reports whether op sits on a park list.
func (s *scheduler) parked(op *ir.Op) bool {
	r := s.rankOf[op.Index]
	return r >= 0 && s.parkLink[r] != 0
}

// wake wakes the park lists around node n: the list filed at n; with
// successors, the lists at n's successors, whose committed paths n
// holds; with witnesses, the lists at n's ancestors whose deepest filed
// witness chain reaches down to n.
func (s *scheduler) wake(n *graph.Node, successors, witnesses bool) {
	if n == nil || s.nParked == 0 {
		return
	}
	s.wakeNode(n, 0)
	if successors {
		n.VisitSuccessors(func(succ *graph.Node) bool {
			s.wakeNode(succ, 0)
			return true
		})
	}
	if witnesses {
		g := s.ctx.G
		a := n
		for dist := 1; dist <= maxWitnessDepth; dist++ {
			if a = g.SinglePred(a); a == nil {
				break
			}
			s.wakeNode(a, dist)
		}
	}
}

// wakeNode unparks every op filed at n, provided the deepest witness
// chain filed there reaches dist nodes down.
func (s *scheduler) wakeNode(n *graph.Node, dist int) {
	if n.ID >= len(s.parkHead) {
		return
	}
	w := s.parkHead[n.ID]
	if w == 0 || int(w>>32) < dist {
		return
	}
	s.parkHead[n.ID] = 0
	// Every op on the list was parked at n and has not moved since (its
	// move would have woken this list), so n's position is the one its
	// skipped re-picks saw.
	pos := n.Pos()
	for r := int32(w) - 1; r >= 0; {
		next := s.parkLink[r] - 2
		s.parkLink[r] = 0
		s.nParked--
		s.rejoin(s.pool[r], pos)
		r = next
	}
}

// rejoin returns a woken op to the candidate state it would have had
// without parking: tried in this generation when the skipped re-picks
// would already have reached it here, a selector member otherwise.
func (s *scheduler) rejoin(op *ir.Op, pos float64) {
	idx := op.Index
	if s.tried[idx] != s.gen && !s.pruned.Has(idx) {
		again := s.repicked(op, pos)
		if s.refTried != nil && again != (s.refTried[idx] == s.gen) {
			panic(fmt.Errorf("core: woken %v rejoined with tried=%v, but the reference scan re-picked it: %v",
				op, again, s.refTried[idx] == s.gen))
		}
		if again {
			s.tried[idx] = s.gen
			s.triedGen = append(s.triedGen, op)
		}
	}
	s.maybeAdd(op)
}

// notePick records a pick for the rejoin rule. Only picks with op room
// could have returned a parked op (parked ops are never branches), and
// only picks made while some op is parked can be asked about: an op
// parks right after its own pick (tried in that generation) or before
// the first pick of a fresh one, and stays parked until it wakes.
func (s *scheduler) notePick(n *graph.Node, opRoom bool, got *ir.Op) {
	if !opRoom || s.nParked == 0 {
		return
	}
	r := int32(len(s.pool))
	if got != nil {
		r = s.rankOf[got.Index]
	}
	bound := math.Inf(-1)
	if len(s.suspList) > 0 {
		bound = s.maxSuspPos
	}
	s.pickLimit = n.Pos()
	if k := len(s.picks) - 1; k >= 0 && s.picks[k].bound == bound {
		if r > s.picks[k].hw {
			s.picks[k].hw = r
		}
		return
	}
	s.picks = append(s.picks, pickMark{bound: bound, hw: r})
}

// repicked reports whether a pick of the current generation would have
// returned op, parked at a node of position pos, had it not been
// parked: a pick that had op room, ran while op was below the frontier
// and clear of rule 3, and returned a lower-priority op or none. Within
// a generation the frontier is fixed, and rule-3 bounds only grow (the
// graph does not change while suspensions are live), so the marks are
// ordered by bound.
func (s *scheduler) repicked(op *ir.Op, pos float64) bool {
	if len(s.picks) == 0 || pos <= s.pickLimit {
		return false
	}
	r := s.rankOf[op.Index]
	for _, m := range s.picks {
		if m.bound >= pos {
			break
		}
		if m.hw > r {
			return true
		}
	}
	return false
}

// witnessDepth certifies the Gapless-move verdict for op leaving from
// by state the wakes watch, and returns the certificate's depth: the
// number of nodes below from that it reads. Conditions 1 and 2 read
// from's own counts (depth 0). Condition 3 stays true while op stays
// put, because the other ops of its iteration only move up (depth 0).
// Condition 4 certifies through a chain of move-op or move-cj fillers,
// each certified the same way, at most maxWitnessDepth nodes deep. A
// filler that must hoist first does not certify: a hoist reads
// liveness below the chain.
func (s *scheduler) witnessDepth(from *graph.Node, op *ir.Op, depth int) (int, bool) {
	if from.OpCount()+from.BranchCount() == 1 || from.IterCount(op.Iter) >= 2 || s.isLastOfIter(from, op) {
		return depth, true
	}
	if depth == maxWitnessDepth {
		return 0, false
	}
	g := s.ctx.G
	found := -1
	from.VisitSuccessors(func(succ *graph.Node) bool {
		if succ.Drain || succ.IterCount(op.Iter) == 0 {
			return true
		}
		for _, x := range s.byIter[op.Iter+1] {
			if x == op || x.Frozen || g.NodeOf(x) != succ {
				continue
			}
			if !x.IsBranch() && g.Where(x) != succ.Root {
				continue
			}
			if !s.canFill(x, op) {
				continue
			}
			if d, ok := s.witnessDepth(succ, x, depth+1); ok {
				found = d
				return false
			}
		}
		return true
	})
	return found, found >= 0
}

// repickIsNoop runs, under CrossCheck, the re-pick of parked op that
// the reference scan would have made toward target, as a probe: the
// Gapless-move test, the move-op probe and recordBlock's unmoveable
// rule. It returns an error unless the re-pick would only have marked
// op tried — the sign of a missed wake.
func (s *scheduler) repickIsNoop(target *graph.Node, op *ir.Op) error {
	g := s.ctx.G
	home := g.NodeOf(op)
	if g.Where(op) != home.Root {
		return fmt.Errorf("core: parked %v is off the root of n%d", op, home.ID)
	}
	if s.opts.GapPrevention && op.Iter != ir.NoIter && !s.gaplessMove(home, op) {
		return fmt.Errorf("core: parked %v would be suspended at n%d", op, home.ID)
	}
	blk := s.ctx.CanStepUp(op, nil)
	if blk.Kind != ps.BlockDep || blk.By == nil {
		return fmt.Errorf("core: parked %v at n%d would end in a %v block by %v", op, home.ID, blk.Kind, blk.By)
	}
	if s.pins(target, blk.By) {
		return fmt.Errorf("core: parked %v at n%d would be marked unmoveable (blocked by %v)", op, home.ID, blk.By)
	}
	return nil
}

// checkParked cross-checks the park lists: every parked op is filed
// exactly once, under its current home. Test and CrossCheck use only.
func (s *scheduler) checkParked() error {
	g := s.ctx.G
	filed := 0
	for id, w := range s.parkHead {
		for r := int32(w) - 1; r >= 0; r = s.parkLink[r] - 2 {
			op := s.pool[r]
			if s.parkLink[r] == 0 {
				return fmt.Errorf("core: %v on the park list of n%d but not parked", op, id)
			}
			if home := g.NodeOf(op); home == nil || home.ID != id {
				return fmt.Errorf("core: %v parked under n%d but homed at %v", op, id, home)
			}
			if filed++; filed > s.nParked {
				return fmt.Errorf("core: park lists hold more than the %d parked ops (a cycle?)", s.nParked)
			}
		}
	}
	parked := 0
	for r := range s.parkLink {
		if s.parkLink[r] != 0 {
			parked++
		}
	}
	if filed != parked || parked != s.nParked {
		return fmt.Errorf("core: %d ops filed on park lists, %d parked, count %d", filed, parked, s.nParked)
	}
	return nil
}

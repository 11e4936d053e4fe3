package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/ps"
)

// Parking: candidates whose re-pick could only repeat their block leave
// the selectors until an event changes what their block read (DESIGN.md
// §6.5).
//
// Under gap prevention every arrival and every rule-2 wake-up bumps the
// retry generation, which hands every tried op back to chooseOp. Most
// of them are still blocked as before, so their re-pick runs the
// Gapless-move test and a probe only to end where it began. Two kinds
// of block repeat that way: a move-op dependence block by a producer
// that does not pin the op, and a move-cj resource barrier, a branch
// whose predecessor's branch slot is full. A parked op skips those
// re-picks. It sits on an intrusive list filed under its home node with
// a record of what the skipped re-pick reads. The op-home hook,
// markUnmoveable and the node advance pass their event op to the lists
// around the node that changed, and an op wakes only when the event
// can change what its re-pick would compute: the register scoreboard's
// stall-and-wake, keyed by node and filtered by operand.
//
// A skipped branch re-pick is not quite a no-op: it counts a resource
// barrier. bumpGen and rejoin add those counts back (accountBranches).

// maxWitnessDepth bounds the condition-4 witness chains that certify a
// parked op's Gapless-move verdict: a deeper chain would make every
// wake walk further up the chain, so such an op is simply not parked.
const maxWitnessDepth = 8

// pickMark folds the current generation's picks of one class room under
// one rule-3 bound: hw is the largest rank they returned, len(pool) for
// a pick that found nothing. The marks are the whole pick history the
// rejoin rule needs (see repicked).
type pickMark struct {
	bound float64 // rule-3 bound of the picks; -Inf while nothing is suspended
	hw    int32
}

// parkRec is what a parked op's skipped re-pick reads beyond its own
// vertex, recorded at park time so a wake can test its event against
// it. The Gapless-move certificate is a witness chain depth nodes deep
// (0: the verdict rests on the home node itself) whose last node is
// certified by condition term.
type parkRec struct {
	regs    uint64 // the registers of the chain's fillers and of the copies on its and p's paths, bit r&63
	blocker int32  // rank of the producer the block named; -1 for a branch
	depth   uint8  // witness chain length, at most maxWitnessDepth
	term    uint8  // 1, 2 or 3: the condition certifying the chain's last node; 0 with no test
	flags   uint8  // recInHome | recPathCopy | recMem
}

const (
	recInHome   = 1 << iota // the blocker reads the op's result in its home (move-past-read)
	recPathCopy             // the op's committed path holds a copy its reads may propagate through
	recMem                  // some filler loads or stores
)

// Wake event kinds: the op-home hook's two events, an unmoveable mark
// and the node advance.
const (
	evDepart = iota
	evArrive
	evUnmoveable
	evAdvance
)

// wakeEvent is what a wake site passes down to the lists it visits.
type wakeEvent struct {
	kind int
	x    *ir.Op // the op that moved or was marked; nil for the node advance
	rank int32  // x's rank, for an unmoveable mark
	regs uint64 // x's reads and result, bit r&63, for an arrival
	mem  bool   // x loads or stores, for an arrival
}

// regBit returns register r's bit in a may-mask, as the graph's vertex
// summaries assign them.
func regBit(r ir.Reg) uint64 { return 1 << (uint(r) & 63) }

// opRegs is the may-mask of op's reads and result.
func opRegs(op *ir.Op) uint64 {
	var m uint64
	if d := op.Def(); d != ir.NoReg {
		m = regBit(d)
	}
	var buf [3]ir.Reg
	for _, u := range op.Uses(buf[:0]) {
		m |= regBit(u)
	}
	return m
}

func touchesMem(op *ir.Op) bool { return op.IsLoad() || op.IsStore() }

// pathCopyRegs returns the may-mask of the copies committed on the
// path from the root of in's node down to in, the leaf entering some
// node n. A mover out of n propagates its reads through them, so an op
// landing on that path that defines one of their registers can block
// the mover without conflicting with it.
func pathCopyRegs(in *graph.Vertex) uint64 {
	var m uint64
	for v := in; v != nil; v = v.Parent() {
		for _, o := range v.Ops {
			if o.IsCopy() {
				m |= opRegs(o)
			}
		}
	}
	return m
}

// rank returns op's rank, or -1 for an op outside the candidate pool.
func (s *scheduler) rank(op *ir.Op) int32 {
	idx := op.Index
	if idx < 0 || idx >= len(s.rankOf) {
		return -1
	}
	if r := s.rankOf[idx]; r >= 0 && s.pool[r] == op {
		return r
	}
	return -1
}

// maybePark parks op after its migration step out of cur ended in a
// block that a re-pick could only repeat, when the Gapless-move verdict
// that let the step run is certified by state the wakes watch. The
// caller has checked the step itself: either a plain op at cur's root
// whose TryMoveOpUp without renaming ended in a dependence block by by
// that left it moveable, or a branch (by nil) whose move-cj hit the
// full branch slot of a predecessor that is not the target.
func (s *scheduler) maybePark(cur *graph.Node, op, by *ir.Op) {
	r := s.rankOf[op.Index]
	if s.unmoveable.Has(int(r)) {
		return
	}
	rec := parkRec{blocker: -1}
	if by != nil {
		if rec.blocker = s.rank(by); rec.blocker < 0 {
			return
		}
		g := s.ctx.G
		if g.NodeOf(by) == cur {
			rec.flags |= recInHome
		}
		if c := pathCopyRegs(cur.In()); c != 0 {
			rec.flags |= recPathCopy
			rec.regs |= c
		}
	}
	if s.opts.GapPrevention && op.Iter != ir.NoIter && !s.certify(cur, op, &rec) {
		return
	}
	s.park(r, cur, rec)
}

// park files the op at rank r under home with record rec. The op leaves
// its selector: it is usually out already (markTried), but a
// mid-migration bumpGen (after a step out of a full node, or a branch
// move) re-adds the op being migrated.
func (s *scheduler) park(r int32, home *graph.Node, rec parkRec) {
	s.selRemove(r)
	if home.ID >= len(s.parkHead) {
		// Sized at the first park; node splits keep issuing IDs.
		s.parkHead = append(s.parkHead, make([]uint64, s.ctx.G.NodeIDBound()-len(s.parkHead))...)
	}
	if s.parkRec == nil {
		s.parkRec = make([]parkRec, len(s.pool))
	}
	s.parkRec[r] = rec
	w := s.parkHead[home.ID]
	s.parkLink[r] = int32(w) + 1 // the old head's rank+1, plus one: 1 ends the list
	if d := uint64(rec.depth); d > w>>32 {
		w = d << 32
	}
	s.parkHead[home.ID] = w&^math.MaxUint32 | uint64(r+1)
	s.nParked++
	if s.pool[r].IsBranch() {
		s.nParkedBr++
	}
}

// parked reports whether op sits on a park list.
func (s *scheduler) parked(op *ir.Op) bool {
	r := s.rankOf[op.Index]
	return r >= 0 && s.parkLink[r] != 0
}

// wakeArrival passes x's arrival at node m to the lists at m and at its
// ancestors whose deepest witness chain reaches m. An arrival never
// lands on a committed path that a parked op's block reads: the op
// arrived from a successor it had left, and that departure was heard.
func (s *scheduler) wakeArrival(x *ir.Op, m *graph.Node) {
	if m == nil {
		return
	}
	ev := wakeEvent{kind: evArrive, x: x, regs: opRegs(x), mem: touchesMem(x)}
	s.wakeList(m, &ev, 0)
	for dist := 1; dist <= maxWitnessDepth; dist++ {
		if m = m.Pred(); m == nil {
			return
		}
		s.wakeList(m, &ev, dist)
	}
}

// wakeAround passes a departure from n, an unmoveable mark or the node
// advance at n to the lists at n and at its successors: the parked ops
// whose home is n, or whose blocker or committed path may rest there.
// Witness chains below n need no wake: an op leaving a chain node lands
// in the chain node above it, where the arrival is heard (DESIGN.md
// §6.5).
func (s *scheduler) wakeAround(n *graph.Node, ev *wakeEvent) {
	if n == nil || s.nParked == 0 {
		return
	}
	s.wakeList(n, ev, 0)
	n.VisitSuccessors(func(succ *graph.Node) bool {
		s.wakeList(succ, ev, -1)
		return true
	})
}

// wakeList wakes the ops filed at n that hear ev, which happened at the
// node dist nodes below their home (0: at the home, -1: at its
// predecessor), and keeps the rest filed. Lists whose deepest witness
// chain stops short of dist are skipped whole.
func (s *scheduler) wakeList(n *graph.Node, ev *wakeEvent, dist int) {
	if n.ID >= len(s.parkHead) {
		return
	}
	w := s.parkHead[n.ID]
	if w == 0 || int(w>>32) < dist {
		return
	}
	// Every op on the list was parked at n and has not moved since (its
	// move would have woken it), so n's position is the one its skipped
	// re-picks saw.
	pos := n.Pos()
	var kept uint64
	last := int32(-1)
	for r := int32(w) - 1; r >= 0; {
		next := s.parkLink[r] - 2
		if !s.hears(r, ev, dist) {
			if last < 0 {
				kept |= uint64(r + 1)
			} else {
				s.parkLink[last] = r + 2
			}
			last = r
			if d := uint64(s.parkRec[r].depth); d > kept>>32 {
				kept = kept&math.MaxUint32 | d<<32
			}
			r = next
			continue
		}
		s.parkLink[r] = 0
		s.nParked--
		if s.pool[r].IsBranch() {
			s.nParkedBr--
		}
		s.rejoin(r, pos)
		r = next
	}
	if last >= 0 {
		s.parkLink[last] = 1
	}
	s.parkHead[n.ID] = kept
}

// hears reports whether ev, at the node dist nodes below the home of
// the op parked at rank r (0: the home, -1: its predecessor), can
// change what the op's skipped re-pick would compute. The hook fires
// mid-mutation, so the rules read only op fields and the record. The
// reason for each rule is in DESIGN.md §6.5.
func (s *scheduler) hears(r int32, ev *wakeEvent, dist int) bool {
	p, rec, x := s.pool[r], &s.parkRec[r], ev.x
	switch ev.kind {
	case evAdvance:
		return true
	case evUnmoveable:
		return rec.blocker >= 0 && ev.rank == rec.blocker
	case evArrive:
		if dist > int(rec.depth) {
			return false
		}
		return x.IsBranch() ||
			dist == int(rec.depth) && rec.term == 1 ||
			ev.regs&rec.regs != 0 ||
			ev.mem && rec.flags&recMem != 0 ||
			dist < int(rec.depth) && !s.ctx.M.InfiniteOps()
	}
	// A departure from p's home (dist 0) or predecessor (dist -1).
	switch {
	case x.IsBranch():
		// A branch leaving a node dissolves it, which re-homes p or
		// frees its predecessor's branch slot.
		return true
	case dist == 0 && x.Iter == p.Iter:
		// p itself, or a partner that held condition 2.
		return true
	case p.IsBranch():
		// A branch's re-pick reads its predecessor's branch slots only.
		return false
	case dist < 0 && rec.flags&recInHome != 0:
		// The predecessor may be emptied and spliced out.
		return true
	case rec.flags&recPathCopy != 0 && x.Def() != ir.NoReg && rec.regs&regBit(x.Def()) != 0:
		// x may define a register p's reads propagate to.
		return true
	}
	return deps.Blocks(x, p) || deps.Blocks(p, x)
}

// rejoin returns the woken op at rank r to the candidate state it would
// have had without parking: tried in this generation when the skipped
// re-picks would already have reached it here, a selector member
// otherwise. A branch's skipped re-pick counted a resource barrier; it
// is counted now.
func (s *scheduler) rejoin(r int32, pos float64) {
	if s.tried[r] != s.gen && !s.pruned.Has(int(r)) {
		again := s.repicked(r, pos)
		if s.refTried != nil && again != (s.refTried[r] == s.gen) {
			panic(fmt.Errorf("core: woken %v rejoined with tried=%v, but the reference scan re-picked it: %v",
				s.pool[r], again, s.refTried[r] == s.gen))
		}
		if again {
			s.tried[r] = s.gen
			s.triedGen = append(s.triedGen, r)
			if s.pool[r].IsBranch() {
				s.countSkippedBarrier()
			}
		}
	}
	s.addRank(r)
}

func (s *scheduler) countSkippedBarrier() {
	s.stats.ResourceBarriers++
	s.skippedBarriers++
}

// accountBranches runs as the generation closes: every branch still
// parked that the closing generation's picks would have re-picked, had
// it not been parked, hit its resource barrier once more. A branch
// tried in this generation was parked after its own pick, which counted.
func (s *scheduler) accountBranches() {
	if len(s.brPicks) > 0 && s.nParkedBr > 0 {
		g := s.ctx.G
		for w, word := range s.branches.Words() {
			for ; word != 0; word &= word - 1 {
				r := int32(w<<6 | bits.TrailingZeros64(word))
				if s.parkLink[r] != 0 && s.tried[r] != s.gen && s.repicked(r, g.NodeOf(s.pool[r]).Pos()) {
					s.countSkippedBarrier()
				}
			}
		}
	}
	if s.refTried != nil && s.skippedBarriers != s.refBarriers {
		panic(fmt.Errorf("core: %d skipped branch re-picks counted as barriers, but the reference scan re-picked %d",
			s.skippedBarriers, s.refBarriers))
	}
}

// notePick records a pick for the rejoin rule and the barrier
// accounting, in one mark list per class room: a parked plain op could
// only have been returned by a pick with op room, a parked branch by one
// with branch room. Only picks made while some op is parked can be asked
// about: an op parks right after its own pick (tried in that generation)
// or before the first pick of a fresh one, and stays parked until it
// wakes.
func (s *scheduler) notePick(n *graph.Node, opRoom, brRoom bool, got *ir.Op) {
	if s.nParked == 0 {
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
	if opRoom {
		s.picks = addMark(s.picks, bound, r)
	}
	if brRoom {
		s.brPicks = addMark(s.brPicks, bound, r)
	}
}

func addMark(marks []pickMark, bound float64, r int32) []pickMark {
	if k := len(marks) - 1; k >= 0 && marks[k].bound == bound {
		if r > marks[k].hw {
			marks[k].hw = r
		}
		return marks
	}
	return append(marks, pickMark{bound: bound, hw: r})
}

// repicked reports whether a pick of the current generation would have
// returned the op at rank r, parked at a node of position pos, had it
// not been parked: a pick with room for the op's class that ran while
// the op was below the frontier and clear of rule 3, and returned a
// lower-priority op or none. Within a generation the frontier is fixed,
// and rule-3 bounds only grow (the graph does not change while
// suspensions are live), so the marks are ordered by bound.
func (s *scheduler) repicked(r int32, pos float64) bool {
	marks := s.picks
	if s.pool[r].IsBranch() {
		marks = s.brPicks
	}
	if len(marks) == 0 || pos <= s.pickLimit {
		return false
	}
	for _, m := range marks {
		if m.bound >= pos {
			break
		}
		if m.hw > r {
			return true
		}
	}
	return false
}

// certify fills in rec's Gapless-move certificate for op, parked at
// its home from, and reports whether the verdict that let op's step run
// is certified by state the wakes watch. The certificate is the
// verdict's witness chain, read off the memo: no probe, no search. It
// is current because the migration step that parks op consulted
// gaplessMove(from, op) and has mutated nothing since, and a kept
// verdict's read set contains its witness's, so no witness on the chain
// is stale. At each chain node the conditions are taken in the order
// 3, 2, 1, and the first that holds ends the chain: condition 3 stays
// true while the op stays put, because the other ops of its iteration
// only move up; condition 2 survives every arrival; condition 1
// survives no arrival. Otherwise the chain follows the node's witness,
// at most maxWitnessDepth nodes deep, and rec gathers the fillers'
// registers and memory use. A filler that must hoist first does not
// certify: a hoist reads liveness below the chain.
func (s *scheduler) certify(from *graph.Node, op *ir.Op, rec *parkRec) bool {
	g := s.ctx.G
	for depth := 0; ; depth++ {
		switch {
		case s.isLastOfIter(from, op):
			rec.term = 3
		case from.IterCount(op.Iter) >= 2:
			rec.term = 2
		case from.OpCount()+from.BranchCount() == 1:
			rec.term = 1
		}
		if rec.term != 0 {
			rec.depth = uint8(depth)
			return true
		}
		if depth == maxWitnessDepth {
			return false
		}
		op = s.pool[s.witness[op.Index]-1]
		from = g.NodeOf(op)
		if !op.IsBranch() && g.Where(op) != from.Root {
			return false
		}
		rec.regs |= opRegs(op) | pathCopyRegs(from.In())
		if touchesMem(op) {
			rec.flags |= recMem
		}
	}
}

// repickIsNoop runs, under CrossCheck, the re-pick of parked op that
// the reference scan would have made toward target, as a probe: the
// Gapless-move test, the step probe and recordBlock's rules. It returns
// an error unless the re-pick would only have marked op tried and, for
// a branch, counted a resource barrier — the sign of a missed wake.
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
	if op.IsBranch() {
		if blk.Kind != ps.BlockResource {
			return fmt.Errorf("core: parked branch %v at n%d would end in a %v block", op, home.ID, blk.Kind)
		}
		if pred := home.Pred(); pred == nil || pred == target {
			return fmt.Errorf("core: parked branch %v at n%d would not count a barrier (predecessor %v, target n%d)",
				op, home.ID, pred, target.ID)
		}
		return nil
	}
	if blk.Kind != ps.BlockDep || blk.By == nil {
		return fmt.Errorf("core: parked %v at n%d would end in a %v block by %v", op, home.ID, blk.Kind, blk.By)
	}
	if s.pins(target, blk.By) {
		return fmt.Errorf("core: parked %v at n%d would be marked unmoveable (blocked by %v)", op, home.ID, blk.By)
	}
	return nil
}

// checkParked cross-checks the park lists: every parked op is filed
// exactly once, under its current home, and the counts match parked and
// branches, the parked ops and branches checkCandidates' pass counted.
// Test and CrossCheck use only.
func (s *scheduler) checkParked(parked, branches int) error {
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
			if d := int(w >> 32); int(s.parkRec[r].depth) > d {
				return fmt.Errorf("core: %v's witness chain is %d deep, but n%d's list says %d", op, s.parkRec[r].depth, id, d)
			}
		}
	}
	if filed != parked || parked != s.nParked || branches != s.nParkedBr {
		return fmt.Errorf("core: %d ops filed on park lists, %d parked (%d branches), counts %d and %d",
			filed, parked, branches, s.nParked, s.nParkedBr)
	}
	return nil
}

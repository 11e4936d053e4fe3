package core

import (
	"context"
	"testing"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/ps"
)

// parkRig builds the hand-made chains of the park scenarios: one node
// per row, in chain order, each row's ops in program order.
type parkRig struct {
	t     *testing.T
	al    *ir.Alloc
	regs  map[string]ir.Reg
	ops   []*ir.Op
	nodes []*graph.Node
	s     *scheduler
	taken map[*ir.Op]bool // ops placed under their row's branch: on the exit leaf (true) or the continue leaf
}

func newParkRig(t *testing.T) *parkRig {
	return &parkRig{t: t, al: ir.NewAlloc(), regs: map[string]ir.Reg{}, taken: map[*ir.Op]bool{}}
}

func (r *parkRig) reg(name string) ir.Reg {
	if _, ok := r.regs[name]; !ok {
		r.regs[name] = r.al.Reg()
	}
	return r.regs[name]
}

// add numbers op and appends it to the rig's op list.
func (r *parkRig) add(op *ir.Op) *ir.Op {
	op.ID, op.Origin = r.al.OpID(), len(r.ops)
	r.ops = append(r.ops, op)
	return op
}

// op makes dst = const (no sources) or dst = src0 + src1 / src0 + 1,
// in iteration iter.
func (r *parkRig) op(iter int, dst string, srcs ...string) *ir.Op {
	op := &ir.Op{Iter: iter, Kind: ir.Const, Dst: r.reg(dst), Imm: 1}
	switch len(srcs) {
	case 1:
		op.Kind, op.Src[0], op.BImm = ir.Add, r.reg(srcs[0]), true
	case 2:
		op.Kind, op.Src = ir.Add, [2]ir.Reg{r.reg(srcs[0]), r.reg(srcs[1])}
	}
	return r.add(op)
}

// copyOp makes dst = src.
func (r *parkRig) copyOp(iter int, dst, src string) *ir.Op {
	return r.add(&ir.Op{Iter: iter, Kind: ir.Copy, Dst: r.reg(dst), Src: [2]ir.Reg{r.reg(src)}})
}

// branch makes a loop-exit test "exit if src < 10", in iteration iter.
func (r *parkRig) branch(iter int, src string) *ir.Op {
	return r.add(&ir.Op{Iter: iter, Kind: ir.CJ, Src: [2]ir.Reg{r.reg(src)}, Imm: 10, BImm: true, Rel: ir.Lt})
}

// mem addresses array arr at idx, or at register idxReg when one is
// named (which aliases every reference to arr).
func (r *parkRig) mem(arr string, idx int64, idxReg string) ir.MemRef {
	m := ir.MemRef{Array: r.al.Array(arr), Index: idx}
	if idxReg != "" {
		m.IndexReg = r.reg(idxReg)
	}
	return m
}

// store makes m = src, in iteration iter.
func (r *parkRig) store(iter int, src string, m ir.MemRef) *ir.Op {
	return r.add(&ir.Op{Iter: iter, Kind: ir.Store, Src: [2]ir.Reg{r.reg(src)}, Mem: m})
}

// load makes dst = m, in iteration iter.
func (r *parkRig) load(iter int, dst string, m ir.MemRef) *ir.Op {
	return r.add(&ir.Op{Iter: iter, Kind: ir.Load, Dst: r.reg(dst), Mem: m})
}

// build lays the rows out as a chain and starts a CrossCheck scheduler
// on fus functional units (0: unlimited) with the first row as the
// scheduling target. A row led by a branch puts it at the node's root,
// exiting the program when taken; its ops listed in r.taken go under
// it.
func (r *parkRig) build(fus int, gap bool, rows ...[]*ir.Op) {
	g := graph.New(r.al)
	var tail *graph.Node
	for _, row := range rows {
		if row[0].IsBranch() {
			tail = graph.AppendBranch(g, tail, row[0], nil)
		} else {
			tail = graph.AppendOp(g, tail, row[0])
		}
		for _, op := range row[1:] {
			v := tail.Root
			if exit, ok := r.taken[op]; ok {
				if v = v.True; exit {
					v = tail.Root.False
				}
			}
			g.AddOp(op, v)
		}
		r.nodes = append(r.nodes, tail)
	}
	m := machine.Infinite()
	if fus > 0 {
		m = machine.New(fus)
	}
	ddg := deps.Build(r.ops)
	r.s = newScheduler(context.Background(), ps.NewCtx(g, m, nil), r.ops, deps.NewPriority(ddg),
		Options{GapPrevention: gap, MaxSteps: DefaultMaxSteps, CrossCheck: true})
	r.t.Cleanup(func() { g.SetOpHomeHook(r.s.prevHook) })
	r.s.startNode(r.nodes[0])
}

// migrate picks op toward the target and migrates it, as scheduleNode
// does once chooseOp returns it.
func (r *parkRig) migrate(op *ir.Op) {
	r.s.markTried(op)
	r.s.migrate(r.nodes[0], op)
}

// mustPark migrates op and requires its block to park it.
func (r *parkRig) mustPark(op *ir.Op) {
	r.t.Helper()
	r.migrate(op)
	if !r.s.parked(op) {
		r.t.Fatalf("scenario: %v did not park (home n%d, unmoveable=%v)",
			op, r.s.ctx.G.NodeOf(op).ID, r.s.unmoveable.Has(int(r.s.rankOf[op.Index])))
	}
}

// rec returns parked op's record.
func (r *parkRig) rec(op *ir.Op) parkRec { return r.s.parkRec[r.s.rankOf[op.Index]] }

// stopsAt requires op to rest at node i.
func (r *parkRig) stopsAt(op *ir.Op, i int) {
	r.t.Helper()
	if r.s.ctx.G.NodeOf(op) != r.nodes[i] {
		r.t.Fatalf("scenario: %v rests at %v, want n%d", op, r.s.ctx.G.NodeOf(op), r.nodes[i].ID)
	}
}

// replay is the CrossCheck replay pass: pick toward target until the
// structure runs dry, checking every pick with crossCheckPick — the
// check scheduleNode panics on — without migrating, so no move can wake
// a parked op on the way. The reference re-picks every parked op it
// reaches and fails unless that re-pick would have had no effect.
func (r *parkRig) replay(target *graph.Node) {
	r.t.Helper()
	s := r.s
	for {
		op := s.chooseOp(target, true, true)
		if err := s.crossCheckPick(target, true, true, op); err != nil {
			r.t.Fatal(err)
		}
		if op == nil {
			return
		}
		s.markTried(op)
	}
}

// The park scenarios each build the smallest chain in which one wake
// site is the only one that hears about a change to a parked op's
// block, and replay the picks under CrossCheck. Removing that wake
// makes the replay fail.

// An op arrives ahead of the blocker: P is parked by a reader of its
// result left in its node, and c, leaving P's node for the target,
// lands on P's committed path behind a copy P reads through — so a
// re-pick now stops at c, in the scheduled region, and pins P. Only the
// wake of the node c left hears it.
func TestParkWakeArrivalAheadOfBlocker(t *testing.T) {
	r := newParkRig(t)
	cp := r.copyOp(0, "rb", "rc") // target: rb = rc
	p := r.op(0, "rp", "rb")      // rp = rb + 1
	rd := r.op(0, "rr", "rp")     // reads rp: P's move-past-read blocker
	c := r.op(0, "rc")            // rc = const: redefines what the copy reads
	r.build(0, false, []*ir.Op{cp}, []*ir.Op{p, rd, c})
	r.mustPark(p)
	r.s.bumpGen()
	r.migrate(c)
	if r.s.ctx.G.NodeOf(c) != r.nodes[0] {
		t.Fatalf("scenario: %v did not reach the target", c)
	}
	r.replay(r.nodes[0])
}

// A departure empties the predecessor: P is parked by a reader in its
// node; the only op of P's predecessor leaves for the target, the
// emptied node is spliced out, and P's committed path becomes the
// target's, where a producer of P's operand pins it. Only the wake of
// the successors of the node the op left hears it.
func TestParkWakeDepartureEmptiesPredecessor(t *testing.T) {
	r := newParkRig(t)
	e := r.op(0, "re")        // target: produces P's operand
	c := r.op(0, "rc")        // predecessor's only op
	p := r.op(0, "rp", "re")  // rp = re + 1
	rd := r.op(0, "rr", "rp") // reads rp: P's move-past-read blocker
	r.build(0, false, []*ir.Op{e}, []*ir.Op{c}, []*ir.Op{p, rd})
	r.mustPark(p)
	r.s.bumpGen()
	r.migrate(c)
	if r.s.ctx.G.NodeOf(p).Pred() != r.nodes[0] {
		t.Fatal("scenario: the emptied predecessor was not spliced out")
	}
	r.replay(r.nodes[0])
}

// The blocker is marked unmoveable in place: P is parked by its
// producer b one node up; b's own migration is blocked by a producer in
// the target, which marks b unmoveable without moving it, and a re-pick
// of P would now mark P unmoveable too. Only markUnmoveable's wake
// hears it.
func TestParkWakeBlockerMarkedUnmoveable(t *testing.T) {
	r := newParkRig(t)
	a := r.op(0, "ra")       // target
	b := r.op(0, "rb", "ra") // blocked by a, in the scheduled region
	p := r.op(0, "rp", "rb") // blocked by b
	r.build(0, false, []*ir.Op{a}, []*ir.Op{b}, []*ir.Op{p})
	r.mustPark(p)
	r.s.bumpGen()
	r.migrate(b)
	if !r.s.unmoveable.Has(int(r.s.rankOf[b.Index])) {
		t.Fatal("scenario: the blocker was not marked unmoveable")
	}
	r.replay(r.nodes[0])
}

// The target advances onto the predecessor: P is parked by its producer
// b one node up, below the target. The next node to schedule is b's,
// so b now rests in the scheduled region and a re-pick of P would pin
// it. Only the node-advance wake hears it.
func TestParkWakeTargetAdvancesOntoPredecessor(t *testing.T) {
	r := newParkRig(t)
	a := r.op(0, "ra")
	b := r.op(0, "rb")
	p := r.op(0, "rp", "rb")
	r.build(0, false, []*ir.Op{a}, []*ir.Op{b}, []*ir.Op{p})
	r.mustPark(p)
	r.s.clearSuspensions()
	r.s.startNode(r.nodes[1])
	r.replay(r.nodes[1])
}

// A node on the witness chain changes: P's Gapless-move verdict holds
// only through condition 4 — x, the next op of its iteration one node
// down, could fill the gap and is alone in its node (condition 1). y
// arrives in x's node, and x's verdict now fails (the rest of the
// iteration, z, waits below for y), so a re-pick of P would suspend it.
// Only the ancestor walk of the node y entered hears it.
func TestParkWakeWitnessChainChanges(t *testing.T) {
	r := newParkRig(t)
	a := r.op(0, "ra")       // target
	p := r.op(0, "rp")       // iteration 0, certified through x
	w := r.op(1, "rw", "rp") // reads rp: P's blocker; produces y's operand
	x := r.op(0, "rx")       // iteration 0, alone in its node
	y := r.op(1, "ry", "rw") // iteration 1, stops in x's node (blocked by w)
	z := r.op(0, "rz", "ry") // iteration 0, held below y
	r.build(0, true, []*ir.Op{a}, []*ir.Op{p, w}, []*ir.Op{x}, []*ir.Op{y}, []*ir.Op{z})
	r.mustPark(p)
	if d := r.rec(p).depth; d != 1 {
		t.Fatalf("scenario: P's witness chain is %d nodes deep, want 1", d)
	}
	r.s.bumpGen()
	r.migrate(y)
	if r.s.ctx.G.NodeOf(y) != r.nodes[2] {
		t.Fatalf("scenario: %v did not stop in x's node", y)
	}
	r.replay(r.nodes[0])
}

// A mid-migration bumpGen re-adds the migrating op: P's first step
// leaves a full node, which opens a new generation and puts P — tried
// in the closing one — back in its selector; its next step parks it,
// and parking must take it out again. Without the selector removal the
// replay's membership check fails.
func TestParkRemovesReaddedMigratingOp(t *testing.T) {
	r := newParkRig(t)
	a := r.op(0, "ra")
	b := r.op(0, "rb")
	x := r.op(0, "rx")
	p := r.op(0, "rp", "rb")
	q := r.op(0, "rq")
	r.build(2, false, []*ir.Op{a}, []*ir.Op{b}, []*ir.Op{x}, []*ir.Op{p, q})
	gen := r.s.gen
	r.mustPark(p)
	if r.s.gen == gen || r.s.ctx.G.NodeOf(p) != r.nodes[2] {
		t.Fatal("scenario: P did not step out of a full node before parking")
	}
	r.replay(r.nodes[0])
}

// A conflict through copy propagation: as in the arrival-ahead
// scenario, but c belongs to another iteration and defines only the
// register P's read propagates to through the copy, so neither the
// iteration rule nor deps.Blocks hears c leave P's home. Only the
// record's note that P's committed path holds a copy does.
func TestParkWakeConflictThroughPathCopy(t *testing.T) {
	r := newParkRig(t)
	cp := r.copyOp(0, "rb", "rc") // target: rb = rc
	p := r.op(0, "rp", "rb")      // rp = rb + 1, reads rc after propagation
	rd := r.op(0, "rr", "rp")     // reads rp: P's move-past-read blocker
	c := r.op(1, "rc")            // another iteration's rc = const
	r.build(0, false, []*ir.Op{cp}, []*ir.Op{p, rd, c})
	r.mustPark(p)
	r.s.bumpGen()
	r.migrate(c)
	r.stopsAt(c, 0)
	r.replay(r.nodes[0])
}

// The blocker leaves P's home: P's move-past-read blocker b, of another
// iteration, moves up into the target, and a re-pick of P would now
// move P. Only the conflict rule hears it: b reads P's result, as every
// move-past-read blocker does.
func TestParkWakeBlockerLeavesHome(t *testing.T) {
	r := newParkRig(t)
	a := r.op(1, "ra")
	p := r.op(0, "rp")
	b := r.op(1, "rb", "rp") // reads rp: P's blocker
	r.build(0, false, []*ir.Op{a}, []*ir.Op{p, b})
	r.mustPark(p)
	r.s.bumpGen()
	r.migrate(b)
	r.stopsAt(b, 0)
	r.replay(r.nodes[0])
}

// A condition-2 partner leaves: P's Gapless-move verdict rests on y, the
// other op of its iteration in its node. y leaves for the target, and
// no other condition holds (z waits below, behind P's blocker), so a
// re-pick of P would suspend it. Only the same-iteration rule hears it.
func TestParkWakeConditionTwoPartnerLeaves(t *testing.T) {
	r := newParkRig(t)
	a := r.op(1, "ra")
	p := r.op(0, "rp")
	y := r.op(0, "ry")       // P's condition-2 partner
	b := r.op(1, "rb", "rp") // reads rp: P's blocker
	z := r.op(0, "rz", "rb") // iteration 0 below P, held by b
	r.build(0, true, []*ir.Op{a}, []*ir.Op{p, y, b}, []*ir.Op{z})
	r.mustPark(p)
	if rec := r.rec(p); rec.depth != 0 || rec.term != 2 {
		t.Fatalf("scenario: P certified by condition %d at depth %d, want condition 2", rec.term, rec.depth)
	}
	r.s.bumpGen()
	r.migrate(y)
	r.stopsAt(y, 0)
	r.replay(r.nodes[0])
}

// A conflicting op leaves P's home into the scheduled region: P is a
// store to A[ri], which may alias every A reference, held by a load of
// A[0] left in its node. x, a store to A[1] of another iteration, does
// not alias that load and moves into the target, where it now sits on
// P's committed path and pins P. Only the conflict rule hears it.
func TestParkWakeConflictingOpLeavesHome(t *testing.T) {
	r := newParkRig(t)
	a := r.op(1, "ra")
	p := r.store(0, "rv", r.mem("A", 0, "ri"))
	b := r.load(1, "rb", r.mem("A", 0, "")) // P's move-past-read blocker
	x := r.store(1, "rw", r.mem("A", 1, ""))
	r.build(0, false, []*ir.Op{a}, []*ir.Op{p, b, x})
	r.mustPark(p)
	r.s.bumpGen()
	r.migrate(x)
	r.stopsAt(x, 0)
	r.replay(r.nodes[0])
}

// An arrival breaks condition 1: P, alone in its node, is held by its
// producer b one node up. x arrives in P's node and stays (b holds it
// too), and z below waits for x, so a re-pick of P would suspend it.
// Only the condition-1 rule hears it.
func TestParkWakeArrivalBreaksConditionOne(t *testing.T) {
	r := newParkRig(t)
	a := r.op(1, "ra")
	b := r.op(1, "rb")
	p := r.op(0, "rp", "rb")
	x := r.op(1, "rx", "rb")
	z := r.op(0, "rz", "rx") // iteration 0 below P
	r.build(0, true, []*ir.Op{a}, []*ir.Op{b}, []*ir.Op{p}, []*ir.Op{x}, []*ir.Op{z})
	r.mustPark(p)
	if rec := r.rec(p); rec.depth != 0 || rec.term != 1 {
		t.Fatalf("scenario: P certified by condition %d at depth %d, want condition 1", rec.term, rec.depth)
	}
	r.s.bumpGen()
	r.migrate(x)
	r.stopsAt(x, 2)
	r.replay(r.nodes[0])
}

// An arrival conflicts with a chain link through the mask: P's verdict
// holds through x1 one node down, whose read rq propagates through the
// copy c in P's node to rz. w, of another iteration, defines rz and
// arrives in P's node behind the copy (which then holds it), so x1 can
// no longer fill P's gap and a re-pick of P would suspend it. Only the
// register-mask rule hears it, through the copy's registers.
func TestParkWakeArrivalConflictsWithChain(t *testing.T) {
	r := newParkRig(t)
	a := r.op(2, "ra")
	b := r.op(1, "rb")
	p := r.op(0, "rp", "rb")
	c := r.copyOp(2, "rq", "rz")
	x1 := r.op(0, "rx", "rq")
	w := r.op(1, "rz")
	r.build(0, true, []*ir.Op{a}, []*ir.Op{b}, []*ir.Op{p, c}, []*ir.Op{x1, w})
	r.mustPark(p)
	if rec := r.rec(p); rec.depth != 1 || rec.term != 3 {
		t.Fatalf("scenario: P certified by condition %d at depth %d, want a one-node chain", rec.term, rec.depth)
	}
	r.s.bumpGen()
	r.migrate(w)
	r.stopsAt(w, 2)
	r.replay(r.nodes[0])
}

// An arrival conflicts with a chain link through memory: P's verdict
// holds through x1, a store to A[0] one node down. w, a store of
// another iteration to A[ri], which may alias it, arrives in P's node
// and stays (b holds it), so x1 can no longer fill P's gap and a
// re-pick of P would suspend it. Only the memory rule hears it.
func TestParkWakeArrivalStoresOverChain(t *testing.T) {
	r := newParkRig(t)
	a := r.op(2, "ra")
	b := r.op(1, "rb")
	p := r.op(0, "rp", "rb")
	y := r.op(2, "ry")
	x1 := r.store(0, "rx", r.mem("A", 0, ""))
	w := r.store(1, "rb", r.mem("A", 0, "ri"))
	r.build(0, true, []*ir.Op{a}, []*ir.Op{b}, []*ir.Op{p, y}, []*ir.Op{x1, w})
	r.mustPark(p)
	if rec := r.rec(p); rec.depth != 1 || rec.flags&recMem == 0 {
		t.Fatalf("scenario: P certified at depth %d (flags %b), want a one-node chain through a store", rec.depth, rec.flags)
	}
	r.s.bumpGen()
	r.migrate(w)
	r.stopsAt(w, 2)
	r.replay(r.nodes[0])
}

// At finite width, an arrival crowds a chain link: P is a branch barred
// by the full branch slot one node up, and its verdict holds through x1
// below, which fits P's node on two units beside y. w arrives in P's
// node and stays (b holds it), and x1 no longer fits, so a re-pick of P
// would suspend it. Only the finite-width rule hears it.
func TestParkWakeArrivalCrowdsChain(t *testing.T) {
	r := newParkRig(t)
	a := r.op(2, "ra")
	q := r.branch(1, "rc") // fills the branch slot of P's predecessor
	b := r.op(1, "rb")
	p := r.branch(0, "rd")
	y := r.op(1, "ry")
	x1 := r.op(0, "rx")
	w := r.op(1, "rw", "rb")
	r.build(2, true, []*ir.Op{a}, []*ir.Op{q, b}, []*ir.Op{p, y}, []*ir.Op{x1, w})
	r.mustPark(p)
	if rec := r.rec(p); rec.depth != 1 {
		t.Fatalf("scenario: P certified by condition %d at depth %d, want a one-node chain", rec.term, rec.depth)
	}
	r.s.bumpGen()
	r.migrate(w)
	r.stopsAt(w, 2)
	r.replay(r.nodes[0])
}

// A branch arrival breaks a chain link: P's verdict holds through x1
// one node down, certified by condition 2 with y, which sits under the
// node's exit test q. q moves into P's node and stops there (b holds
// it), and the split leaves y in the exit-side drain and x1 in a fresh
// continue-side node where no condition holds (w waits below behind
// z), so a re-pick of P would suspend it. The departures from the
// dissolved node reach no list, so only the branch-arrival rule hears
// it.
func TestParkWakeBranchArrivalSplitsChain(t *testing.T) {
	r := newParkRig(t)
	a := r.op(2, "ra")
	b := r.op(1, "rb")
	p := r.op(0, "rp", "rb")
	c := r.op(2, "rc")
	q := r.branch(1, "rb")
	x1 := r.op(0, "rx")
	z := r.op(2, "rz")
	y := r.op(0, "ry")
	w := r.op(0, "rw", "rz")
	r.taken[z], r.taken[y] = false, true
	r.build(0, true, []*ir.Op{a}, []*ir.Op{b}, []*ir.Op{p, c}, []*ir.Op{q, x1, z, y}, []*ir.Op{w})
	r.mustPark(p)
	if rec := r.rec(p); rec.depth != 1 || rec.term != 2 {
		t.Fatalf("scenario: P certified by condition %d at depth %d, want a one-node chain ending in condition 2", rec.term, rec.depth)
	}
	r.s.bumpGen()
	r.migrate(q)
	r.stopsAt(q, 2)
	r.replay(r.nodes[0])
}

// branchRig builds the branch scenarios' chain: P, a branch, is barred
// by q, which fills the branch slot of P's predecessor below the target.
func branchRig(t *testing.T) (r *parkRig, p, q *ir.Op) {
	r = newParkRig(t)
	a := r.op(0, "ra")
	q = r.branch(0, "rc")
	b := r.op(0, "rb")
	p = r.branch(0, "rd")
	r.build(2, false, []*ir.Op{a}, []*ir.Op{q, b}, []*ir.Op{p})
	r.mustPark(p)
	if got := r.s.stats.ResourceBarriers; got != 1 {
		t.Fatalf("scenario: P's own pick counted %d barriers, want 1", got)
	}
	r.s.bumpGen()
	return r, p, q
}

// A skipped branch re-pick counted at bumpGen: a generation's picks
// pass P while it stays parked, so the generation bump counts the
// barrier P's re-pick would have hit. Without the count, the CrossCheck
// comparison with the reference scan's re-picks panics.
func TestParkBranchBarrierCountedAtBumpGen(t *testing.T) {
	r, _, _ := branchRig(t)
	r.replay(r.nodes[0])
	r.s.bumpGen()
	if got := r.s.stats.ResourceBarriers; got != 2 {
		t.Errorf("ResourceBarriers = %d, want 2 (one skipped re-pick)", got)
	}
}

// A skipped branch re-pick counted at rejoin: the generation's picks
// pass P, and then q leaves for the target, which wakes P in the same
// generation. P rejoins tried, and its skipped re-pick counts then.
func TestParkBranchBarrierCountedAtRejoin(t *testing.T) {
	r, p, q := branchRig(t)
	r.replay(r.nodes[0])
	r.migrate(q)
	r.stopsAt(q, 0)
	if r.s.parked(p) {
		t.Fatal("scenario: P still parked after q left its predecessor")
	}
	if got := r.s.stats.ResourceBarriers; got != 2 {
		t.Errorf("ResourceBarriers = %d, want 2 (one skipped re-pick)", got)
	}
}

// A branch leaving the predecessor frees the slot: q moves into the
// target, dissolving P's predecessor, and a re-pick of P would now move
// P. Only the branch-departure rule hears it.
func TestParkBranchWakeSlotFrees(t *testing.T) {
	r, _, q := branchRig(t)
	r.migrate(q)
	r.stopsAt(q, 0)
	r.replay(r.nodes[0])
}

// The target advances onto the predecessor: P's barrier is no longer a
// resource barrier once its predecessor is the node being scheduled.
// Only the node-advance wake hears it.
func TestParkBranchWakeTargetAdvances(t *testing.T) {
	r, _, _ := branchRig(t)
	r.s.startNode(r.nodes[1])
	r.replay(r.nodes[1])
}

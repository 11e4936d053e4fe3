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
}

func newParkRig(t *testing.T) *parkRig {
	return &parkRig{t: t, al: ir.NewAlloc(), regs: map[string]ir.Reg{}}
}

func (r *parkRig) reg(name string) ir.Reg {
	if _, ok := r.regs[name]; !ok {
		r.regs[name] = r.al.Reg(name)
	}
	return r.regs[name]
}

// op makes dst = const (no sources) or dst = src0 + src1 / src0 + 1,
// in iteration iter.
func (r *parkRig) op(iter int, dst string, srcs ...string) *ir.Op {
	op := &ir.Op{ID: r.al.OpID(), Origin: len(r.ops), Iter: iter, Kind: ir.Const, Dst: r.reg(dst), Imm: 1}
	switch len(srcs) {
	case 1:
		op.Kind, op.Src[0], op.BImm = ir.Add, r.reg(srcs[0]), true
	case 2:
		op.Kind, op.Src = ir.Add, [2]ir.Reg{r.reg(srcs[0]), r.reg(srcs[1])}
	}
	r.ops = append(r.ops, op)
	return op
}

// copyOp makes dst = src.
func (r *parkRig) copyOp(iter int, dst, src string) *ir.Op {
	op := &ir.Op{ID: r.al.OpID(), Origin: len(r.ops), Iter: iter, Kind: ir.Copy, Dst: r.reg(dst), Src: [2]ir.Reg{r.reg(src)}}
	r.ops = append(r.ops, op)
	return op
}

// build lays the rows out as a chain and starts a CrossCheck scheduler
// on fus functional units (0: unlimited) with the first row as the
// scheduling target.
func (r *parkRig) build(fus int, gap bool, rows ...[]*ir.Op) {
	g := graph.New(r.al)
	var tail *graph.Node
	for _, row := range rows {
		tail = graph.AppendOp(g, tail, row[0])
		for _, op := range row[1:] {
			g.AddOp(op, tail.Root)
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
			op, r.s.ctx.G.NodeOf(op).ID, r.s.unmoveable.Has(op.Index))
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
	if r.s.ctx.G.SinglePred(r.s.ctx.G.NodeOf(p)) != r.nodes[0] {
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
	if !r.s.unmoveable.Has(b.Index) {
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
	if d, _ := r.s.witnessDepth(r.nodes[1], p, 0); d != 1 {
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

package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/ps"
	"repro/internal/sim"
)

// buildStraightLine makes a chain of n const ops into distinct registers
// (fully parallel) and returns everything a scheduler needs.
func buildStraightLine(n int, fus int) (*ps.Ctx, []*ir.Op, *deps.Priority) {
	al := ir.NewAlloc()
	g := graph.New(al)
	var ops []*ir.Op
	var tail *graph.Node
	for i := 0; i < n; i++ {
		op := &ir.Op{ID: al.OpID(), Origin: i, Iter: 0, Kind: ir.Const, Dst: al.Reg(), Imm: int64(i)}
		tail = graph.AppendOp(g, tail, op)
		ops = append(ops, op)
	}
	ddg := deps.Build(ops)
	return ps.NewCtx(g, machine.New(fus), nil), ops, deps.NewPriority(ddg)
}

func TestScheduleFillsRows(t *testing.T) {
	ctx, ops, pri := buildStraightLine(12, 4)
	stats, err := Schedule(context.Background(), ctx, ops, pri, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.G.Validate(); err != nil {
		t.Fatal(err)
	}
	chain := ctx.G.MainChain()
	// Twelve independent ops on 4 units pack into exactly 3 rows.
	if len(chain) != 3 {
		t.Fatalf("rows = %d, want 3\n%s", len(chain), ctx.G.String())
	}
	for _, n := range chain {
		if n.OpCount() != 4 {
			t.Fatalf("row n%d has %d ops, want 4", n.ID, n.OpCount())
		}
	}
	if stats.ResourceBarriers != 0 {
		t.Errorf("straight-line packing hit %d barriers", stats.ResourceBarriers)
	}
}

func TestScheduleRespectsDependences(t *testing.T) {
	// A chain a->b->c cannot compact at all.
	al := ir.NewAlloc()
	g := graph.New(al)
	r1, r2, r3 := al.Reg(), al.Reg(), al.Reg()
	a := &ir.Op{ID: al.OpID(), Origin: 0, Iter: 0, Kind: ir.Const, Dst: r1, Imm: 1}
	bop := &ir.Op{ID: al.OpID(), Origin: 1, Iter: 0, Kind: ir.Add, Dst: r2, Src: [2]ir.Reg{r1}, Imm: 1, BImm: true}
	c := &ir.Op{ID: al.OpID(), Origin: 2, Iter: 0, Kind: ir.Add, Dst: r3, Src: [2]ir.Reg{r2}, Imm: 1, BImm: true}
	n1 := graph.AppendOp(g, nil, a)
	n2 := graph.AppendOp(g, n1, bop)
	graph.AppendOp(g, n2, c)
	ops := []*ir.Op{a, bop, c}
	ctx := ps.NewCtx(g, machine.New(4), nil)
	if _, err := Schedule(context.Background(), ctx, ops, deps.NewPriority(deps.Build(ops)), Options{}); err != nil {
		t.Fatal(err)
	}
	if got := len(g.MainChain()); got != 3 {
		t.Fatalf("dependence chain compacted to %d rows", got)
	}

	// Semantics must hold.
	res, err := sim.Run(g, sim.NewState(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.Reg(r3) != 3 {
		t.Fatalf("r3 = %d, want 3", res.State.Reg(r3))
	}
}

func TestEmptyPreludeOption(t *testing.T) {
	ctx, ops, pri := buildStraightLine(8, 8)
	_, err := Schedule(context.Background(), ctx, ops, pri, Options{EmptyPrelude: 4})
	if err != nil {
		t.Fatal(err)
	}
	// All 8 ops fit in the first prelude slot; the remaining empty
	// prelude rows must have been spliced away.
	chain := ctx.G.MainChain()
	if len(chain) != 1 || chain[0].OpCount() != 8 {
		t.Fatalf("unexpected chain after prelude scheduling:\n%s", ctx.G.String())
	}
}

func TestResourceBarrierCounting(t *testing.T) {
	// A resource barrier (section 3.2 definition): an op is prevented
	// from moving into a full node B even though it would be moveable
	// onward from B into a node with room. Build a chain a,b,c,d on a
	// 2-wide machine where d outranks c (smaller origin): d migrates
	// through first and fills the intermediate rows; c then blocks at a
	// full intermediate node while the target still has room.
	al := ir.NewAlloc()
	g := graph.New(al)
	mk := func(origin int) *ir.Op {
		return &ir.Op{ID: al.OpID(), Origin: origin, Iter: 0, Kind: ir.Const, Dst: al.Reg(), Imm: 1}
	}
	a := mk(0)
	dep := func(origin int) *ir.Op {
		return &ir.Op{ID: al.OpID(), Origin: origin, Iter: 0, Kind: ir.Add,
			Dst: al.Reg(), Src: [2]ir.Reg{a.Dst}, Imm: 1, BImm: true}
	}
	b1, b2 := dep(1), dep(2) // pinned below a by a true dependence
	c := mk(3)               // independent, lowest priority
	n1 := graph.AppendOp(g, nil, a)
	n2 := graph.AppendOp(g, n1, b1)
	n3 := graph.AppendOp(g, n2, b2)
	graph.AppendOp(g, n3, c)
	ops := []*ir.Op{a, b1, b2, c}
	ctx := ps.NewCtx(g, machine.New(2), nil)
	stats, err := Schedule(context.Background(), ctx, ops, deps.NewPriority(deps.Build(ops)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// b1 and b2 end up filling the node directly below the target; c is
	// then resource-blocked at that full intermediate node even though
	// the target still has room — the definition of a barrier.
	if stats.ResourceBarriers == 0 {
		t.Errorf("expected resource barrier events, got %+v", stats)
	}
	chain := g.MainChain()
	if len(chain) != 3 {
		t.Fatalf("unexpected packing:\n%s", g.String())
	}
}

func TestTraceNodeCallback(t *testing.T) {
	ctx, ops, pri := buildStraightLine(6, 2)
	var nodes int
	var firstSet int
	_, err := Schedule(context.Background(), ctx, ops, pri, Options{
		TraceNode: func(n *graph.Node, moveable []*ir.Op) {
			nodes++
			if nodes == 1 {
				firstSet = len(moveable)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if nodes == 0 {
		t.Fatal("trace callback never fired")
	}
	// Moveable set of the first node: everything below it (5 ops).
	if firstSet != 5 {
		t.Fatalf("first Moveable set = %d ops, want 5", firstSet)
	}
}

// TestMaxStepsGuard lowers the step limit of a scheduler built as
// Schedule builds it and requires the non-termination guard to stop the
// run with its error.
func TestMaxStepsGuard(t *testing.T) {
	ctx, ops, pri := buildStraightLine(20, 4)
	s := newScheduler(context.Background(), ctx, ops, pri, Options{})
	if s.stepLimit != maxSteps {
		t.Fatalf("newScheduler set step limit %d, want %d", s.stepLimit, maxSteps)
	}
	s.stepLimit = 1
	_, err := s.run()
	if err == nil || !strings.Contains(err.Error(), "exceeded 1 steps") {
		t.Fatalf("got error %v, want the step-guard error", err)
	}
}

// TestGaplessMoveDeepFillerChain pins that the Gapless-move test has no
// depth bound: on filler chains deeper than any Livermore or fuzz
// iteration, the head op's move is proved gapless through condition 4
// at every node, as section 3.3 defines it.
func TestGaplessMoveDeepFillerChain(t *testing.T) {
	for _, n := range []int{66, 100} {
		s, g, head := buildFillerChain(n)
		if !s.gaplessMove(g.NodeOf(head), head) {
			t.Errorf("%d-node chain: Gapless-move of the head op = false, want true", n)
		}
	}
}

// TestGaplessVerdictSurvivesUnrelatedMove pins the read-depth rule of
// the Gapless-move memo on buildIterChain. The probed op at node 40 is
// proved gapless by condition 4 through a filler at node 41 that is the
// last of its iteration, so the verdict reads nodes 40 and 41 (read
// depth 1). A committed move at node 43 leaves both untouched: the
// verdict is served without an evaluation, which leaves the filler's
// entry at its old version, and the moved op's iteration frontier alone
// is marked for recompute. A move at node 41 touches the read set: the
// verdict is evaluated again, restamping the filler. Both answers equal
// a fresh gaplessEval. The verdict names the filler as its witness.
// Under CrossCheck a kept verdict is recomputed, so a corrupted verdict
// or witness panics.
func TestGaplessVerdictSurvivesUnrelatedMove(t *testing.T) {
	pctx, s, ops := buildIterChain(48, 8, 4)
	g := pctx.G
	op, filler := ops[2*40+1], ops[2*41]
	from := g.NodeOf(op)
	if !s.gaplessMove(from, op) {
		t.Fatal("scenario: the op at node 40 should prove gapless")
	}
	if e := s.gapMemo[op.Index]; e.depth() != 1 {
		t.Fatalf("verdict read depth %d, want 1 (node 40 and the filler's node 41)", e.depth())
	}
	stamp := s.gapMemo[filler.Index].ver()
	if stamp != g.Version() {
		t.Fatal("scenario: the verdict should have consulted the filler at node 41")
	}
	if w, want := s.witness[op.Index], s.rankOf[filler.Index]+1; w != want {
		t.Fatalf("verdict witness %d, want the filler at node 41 (rank+1 %d)", w, want)
	}

	fresh := func(what string, got bool) {
		t.Helper()
		if want, _, _ := s.gaplessEval(from, op); got != want {
			t.Fatalf("after %s: served %v, a fresh gaplessEval says %v", what, got, want)
		}
	}

	below := ops[2*43] // iteration 3, two nodes below the read set
	g.MoveOp(below, g.Where(below))
	got := s.gaplessMove(from, op)
	if e := s.gapMemo[op.Index]; e.ver() != g.Version() || e.depth() != 1 {
		t.Fatalf("after a move below the read depth: entry at version %d depth %d, want %d and 1", e.ver(), e.depth(), g.Version())
	}
	if v := s.gapMemo[filler.Index].ver(); v != stamp {
		t.Fatalf("after a move below the read depth the verdict was evaluated again (filler restamped %d -> %d)", stamp, v)
	}
	if s.frontiers[op.Iter+1].ver == 0 || s.frontiers[below.Iter+1].ver != 0 {
		t.Fatal("a move of an iteration-3 op should mark iteration 3's frontier for recompute, and only it")
	}
	fresh("a move below the read depth", got)

	inside := ops[2*41+1] // shares node 41 with the filler
	g.MoveOp(inside, g.Where(inside))
	got = s.gaplessMove(from, op)
	if v := s.gapMemo[filler.Index].ver(); v != g.Version() {
		t.Fatalf("after a move inside the read depth the verdict was served from version %d without an evaluation", v)
	}
	fresh("a move inside the read depth", got)

	s.opts.CrossCheck = true
	e, w := s.gapMemo[op.Index], s.witness[op.Index]
	for _, c := range []struct {
		what    string
		entry   memoEntry
		witness int32
	}{
		{"verdict", makeMemoEntry(e.ver(), e.depth(), !e.holds()), w},
		{"witness", e, w + 1},
	} {
		s.gapMemo[op.Index], s.witness[op.Index] = c.entry, c.witness
		g.MoveOp(below, g.Where(below))
		recovered := func() (v any) {
			defer func() { v = recover() }()
			s.gaplessMove(from, op)
			return nil
		}()
		if msg, _ := recovered.(string); !strings.Contains(msg, "a recompute says") {
			t.Fatalf("CrossCheck served a kept verdict with a corrupted %s (recovered %v)", c.what, recovered)
		}
	}
}

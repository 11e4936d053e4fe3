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

// buildIterChain builds a chain of nodes each holding two constant ops
// from interleaved iterations: node j holds one op of iteration j%iters
// and one of iteration (j+1)%iters. Every node is two-wide, so
// condition 1 never fires and the Gapless-move test has to run the
// per-iteration count, frontier, and condition-4 filler machinery.
func buildIterChain(nNodes, iters, fus int) (*ps.Ctx, *scheduler, []*ir.Op) {
	al := ir.NewAlloc()
	g := graph.New(al)
	var ops []*ir.Op
	var tail *graph.Node
	mk := func(origin, iter int) *ir.Op {
		op := &ir.Op{ID: al.OpID(), Origin: origin, Iter: iter, Kind: ir.Const, Dst: al.Reg(), Imm: int64(origin)}
		ops = append(ops, op)
		return op
	}
	for j := 0; j < nNodes; j++ {
		a := mk(2*j, j%iters)
		b := mk(2*j+1, (j+1)%iters)
		tail = graph.AppendOp(g, tail, a)
		g.AddOp(b, tail.Root)
	}
	ddg := deps.Build(ops)
	pctx := ps.NewCtx(g, machine.New(fus), nil)
	pctx.D = ddg
	s := newScheduler(context.Background(), pctx, ops, deps.NewPriority(ddg), Options{GapPrevention: true, MaxSteps: DefaultMaxSteps})
	return pctx, s, ops
}

// BenchmarkGaplessMove measures one full Gapless-move verdict on a
// mid-chain operation with a cold cache: each round bumps the graph
// mutation counter (a same-vertex MoveOp, the cheapest committed
// mutation), so the frontier and the gapless memo recompute — the
// steady-state cost the migration loop pays after every committed move.
func BenchmarkGaplessMove(b *testing.B) {
	pctx, s, ops := buildIterChain(48, 8, 4)
	g := pctx.G
	// The second op of the next-to-last node: its iteration recurs once
	// more in the following node, so the verdict needs the full chain —
	// conditions 1–3 fail, condition 4 finds the filler one node down
	// and proves it last-of-iteration there.
	op := ops[2*46+1]
	from := g.NodeOf(op)
	home := g.Where(op)
	if !s.gaplessMove(from, op) {
		b.Fatal("benchmark scenario: probe should succeed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MoveOp(op, home) // invalidate the generation stamps
		if !s.gaplessMove(from, op) {
			b.Fatal("probe failed")
		}
	}
}

// BenchmarkCondFourSearch measures the deep condition-4 recursion: a
// chain where every node holds exactly one op of iteration 0 plus one
// of another iteration, so proving the head op's move gapless requires
// descending the whole filler chain. The graph is left unmutated, so
// after the first probe the generation-stamped memo answers in O(1) —
// this benchmark pins the memoized steady state the recursive search
// relies on within one migration step.
func BenchmarkCondFourSearch(b *testing.B) {
	al := ir.NewAlloc()
	g := graph.New(al)
	var ops []*ir.Op
	var tail *graph.Node
	const depth = 24
	for j := 0; j < depth; j++ {
		x := &ir.Op{ID: al.OpID(), Origin: 2 * j, Iter: 0, Kind: ir.Const, Dst: al.Reg(), Imm: int64(j)}
		y := &ir.Op{ID: al.OpID(), Origin: 2*j + 1, Iter: 1, Kind: ir.Const, Dst: al.Reg(), Imm: int64(j)}
		tail = graph.AppendOp(g, tail, x)
		g.AddOp(y, tail.Root)
		ops = append(ops, x, y)
	}
	ddg := deps.Build(ops)
	pctx := ps.NewCtx(g, machine.New(4), nil)
	pctx.D = ddg
	s := newScheduler(context.Background(), pctx, ops, deps.NewPriority(ddg), Options{GapPrevention: true, MaxSteps: DefaultMaxSteps})

	head := ops[0]
	from := g.NodeOf(head)
	if !s.gaplessMove(from, head) {
		b.Fatal("benchmark scenario: chain should prove gapless")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.gaplessMove(from, head) {
			b.Fatal("probe failed")
		}
	}
}

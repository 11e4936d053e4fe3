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
	s := newScheduler(context.Background(), pctx, ops, deps.NewPriority(ddg), Options{GapPrevention: true})
	return pctx, s, ops
}

// BenchmarkGaplessMove measures one full Gapless-move verdict on a
// mid-chain operation with a cold cache: each round commits a
// same-vertex MoveOp of the op itself, the cheapest committed mutation.
// It touches the op's home and re-homes an op of its iteration, so the
// memo entry and the frontier recompute — the cost the migration loop
// pays after every move that touches what a verdict read.
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

// BenchmarkGaplessRevalidate measures a verdict served from an older
// graph version: each round commits a same-vertex MoveOp two nodes
// below the read set of a condition-4 verdict (its home and the
// filler's node), so the memo entry is kept after checking two change
// stamps — the cost a re-pick pays after a move that touched nothing
// the verdict read.
func BenchmarkGaplessRevalidate(b *testing.B) {
	pctx, s, ops := buildIterChain(48, 8, 4)
	g := pctx.G
	op, below := ops[2*40+1], ops[2*43]
	from := g.NodeOf(op)
	home := g.Where(below)
	if !s.gaplessMove(from, op) || s.gapMemo[op.Index].depth() != 1 {
		b.Fatal("benchmark scenario: probe should succeed with read depth 1")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MoveOp(below, home) // a new version that leaves the read set untouched
		if !s.gaplessMove(from, op) {
			b.Fatal("probe failed")
		}
	}
}

// buildFillerChain builds a chain of n two-wide nodes, node j holding
// one op of iteration 0 and one of iteration 1, so proving the head op's
// move gapless requires descending the whole filler chain: condition 4
// at every node but the last, where the iteration-0 op is the last of
// its iteration.
func buildFillerChain(n int) (*scheduler, *graph.Graph, *ir.Op) {
	al := ir.NewAlloc()
	g := graph.New(al)
	var ops []*ir.Op
	var tail *graph.Node
	for j := 0; j < n; j++ {
		x := &ir.Op{ID: al.OpID(), Origin: 2 * j, Iter: 0, Kind: ir.Const, Dst: al.Reg(), Imm: int64(j)}
		y := &ir.Op{ID: al.OpID(), Origin: 2*j + 1, Iter: 1, Kind: ir.Const, Dst: al.Reg(), Imm: int64(j)}
		tail = graph.AppendOp(g, tail, x)
		g.AddOp(y, tail.Root)
		ops = append(ops, x, y)
	}
	ddg := deps.Build(ops)
	pctx := ps.NewCtx(g, machine.New(4), nil)
	pctx.D = ddg
	s := newScheduler(context.Background(), pctx, ops, deps.NewPriority(ddg), Options{GapPrevention: true})
	return s, g, ops[0]
}

// BenchmarkCondFourSearch measures the deep condition-4 recursion on a
// 24-node filler chain. The graph is left unmutated, so after the first
// probe the generation-stamped memo answers in O(1) — this benchmark
// pins the memoized steady state the recursive search relies on within
// one migration step.
func BenchmarkCondFourSearch(b *testing.B) {
	s, g, head := buildFillerChain(24)
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

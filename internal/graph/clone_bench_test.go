package graph_test

import (
	"context"
	"testing"

	"repro/internal/deps"
	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// scheduledGraph produces a real scheduled pipeline graph — the input
// POST's phase-1 memo clones on every target width.
func scheduledGraph(tb testing.TB) *pipeline.Result {
	tb.Helper()
	cfg := pipeline.DefaultConfig(machine.Infinite())
	res, err := pipeline.PerfectPipeline(context.Background(), livermore.ByName("LL3").Spec, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkGraphClone measures the arena deep-clone of a scheduled
// graph (the POST phase-1 memo path).
func BenchmarkGraphClone(b *testing.B) {
	res := scheduledGraph(b)
	g := res.Unwound.G
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Clone(res.Unwound.Alloc.Clone())
	}
}

// TestClonePreservesIndices: graph.Clone must carry every op's dense
// index across, so the clone answers the same priority queries as the
// original.
func TestClonePreservesIndices(t *testing.T) {
	res := scheduledGraph(t)
	uw := res.Unwound
	g := uw.G

	ng, byID := g.Clone(uw.Alloc.Clone())
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	mapped := 0
	for _, op := range uw.Ops {
		c := byID[op.ID]
		if c == nil {
			continue // removed by optimization; not placed in the graph
		}
		mapped++
		if c.Index != op.Index {
			t.Fatalf("op %d: clone Index %d, want %d", op.ID, c.Index, op.Index)
		}
		if c.ID != op.ID || c.Iter != op.Iter || c.Origin != op.Origin {
			t.Fatalf("op %d: identity fields drifted in clone", op.ID)
		}
	}
	if mapped == 0 {
		t.Fatal("no ops mapped through the clone")
	}

	// The original program's DDG answers must transfer: a fresh Build
	// over the cloned op list reproduces chain lengths index-for-index.
	cl := uw.Clone()
	d := deps.Build(uw.Ops)
	dc := deps.Build(cl.Ops)
	for i := range uw.Ops {
		if d.ChainLen(uw.Ops[i]) != dc.ChainLen(cl.Ops[i]) {
			t.Fatalf("op %d: chain length differs between original and clone", i)
		}
	}
}

package unifiable

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/ps"
	"repro/internal/sim"
)

func schedule(t *testing.T, spec *ir.LoopSpec, unwind, fus int) (*pipeline.Unwound, Stats) {
	t.Helper()
	uw, err := pipeline.Unwind(spec, unwind)
	if err != nil {
		t.Fatal(err)
	}
	g := uw.BuildGraph()
	ddg := deps.Build(uw.Ops)
	ctx := ps.NewCtx(g, machine.New(fus), uw.ExitLive)
	st, err := Schedule(ctx, uw.Ops, deps.NewPriority(ddg), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return uw, st
}

func TestUnifiableSchedulesAndPreserves(t *testing.T) {
	k := livermore.ByName("LL1")
	uw, st := schedule(t, k.Spec, 8, 4)
	if st.Arrived == 0 {
		t.Fatal("nothing scheduled")
	}
	if st.SetWork == 0 {
		t.Fatal("set maintenance work not accounted")
	}
	// Rows respect the machine.
	for _, n := range uw.G.MainChain() {
		if n.OpCount() > 4 {
			t.Errorf("row n%d has %d ops", n.ID, n.OpCount())
		}
	}
	// Semantics: compare against a fresh reference unwinding.
	ref, err := pipeline.Unwind(k.Spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	refG := ref.BuildGraph()
	vars := map[string]int64{"q": 5, "r": 3, "t": 2, "n": 8}
	arrays := k.Arrays(24)
	refRes, err := sim.Run(refG, ref.InitState(vars, arrays), 100000)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := sim.Run(uw.G, uw.InitState(vars, arrays), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.EquivalentMem(refRes.State, gotRes.State); err != nil {
		t.Fatal(err)
	}
}

// TestNoResourceBarriers checks the defining property of the technique:
// an operation only moves when it arrives, so no op ever parks in an
// intermediate node — the schedule after each node is "clean" above it.
func TestNoResourceBarriers(t *testing.T) {
	k := livermore.ByName("LL9")
	uw, st := schedule(t, k.Spec, 6, 2)
	// Conditional jumps whose path crosses another branch node stall
	// (the inner branch slot is real); they are counted as anomalies.
	// Ordinary operations must essentially always arrive.
	if st.Anomalies > st.Arrived/2 {
		t.Errorf("%d of %d migrations stalled mid-way", st.Anomalies, st.Arrived)
	}
	for _, n := range uw.G.MainChain() {
		if n.OpCount() > 2 {
			t.Errorf("intermediate overflow: row n%d has %d ops", n.ID, n.OpCount())
		}
	}
}

func TestTraceEmitsSets(t *testing.T) {
	spec := livermore.ByName("LL3").Spec
	uw, err := pipeline.Unwind(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := uw.BuildGraph()
	ddg := deps.Build(uw.Ops)
	ctx := ps.NewCtx(g, machine.New(2), uw.ExitLive)
	calls := 0
	first := -1
	_, err = Schedule(ctx, uw.Ops, deps.NewPriority(ddg), Options{
		TraceNode: func(n *graph.Node, set []*ir.Op) {
			calls++
			if first < 0 {
				first = len(set)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || first < 0 {
		t.Fatal("trace never fired")
	}
}

// TestMainChainPositionsIncrease: both schedulers test "below the node
// being scheduled" by position key — core's iteration frontier and
// unifiableSet alike — which is sound only while keys strictly
// increase along the main chain. Checked at every traced scheduling
// step and on the final graph, for GRiP and Unifiable-ops on every
// Livermore kernel.
func TestMainChainPositionsIncrease(t *testing.T) {
	check := func(g *graph.Graph, what string) {
		t.Helper()
		chain := g.MainChain()
		for i := 1; i < len(chain); i++ {
			if chain[i].Pos() <= chain[i-1].Pos() {
				t.Fatalf("%s: n%d at pos %v follows n%d at pos %v on the main chain",
					what, chain[i].ID, chain[i].Pos(), chain[i-1].ID, chain[i-1].Pos())
			}
		}
	}
	for _, k := range livermore.All() {
		for _, technique := range []string{"grip", "unifiable"} {
			uw, err := pipeline.Unwind(k.Spec, 8)
			if err != nil {
				t.Fatal(err)
			}
			g := uw.BuildGraph()
			ctx := ps.NewCtx(g, machine.New(4), uw.ExitLive)
			pri := deps.NewPriority(deps.Build(uw.Ops))
			what := k.Name + " " + technique
			trace := func(*graph.Node, []*ir.Op) { check(g, what) }
			if technique == "grip" {
				_, err = core.Schedule(context.Background(), ctx, uw.Ops, pri,
					core.Options{GapPrevention: true, TraceNode: trace})
			} else {
				_, err = Schedule(ctx, uw.Ops, pri, Options{TraceNode: trace})
			}
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			check(g, what)
		}
	}
}

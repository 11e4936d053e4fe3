package pipeline

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
)

func cloneTestLoop() *ir.LoopSpec {
	return &ir.LoopSpec{
		Name: "clone-loop",
		Body: []ir.BodyOp{
			ir.BLoad("a", ir.Aff("X", 1, -1)),
			ir.BLoad("b", ir.Aff("Y", 1, 0)),
			ir.BSub("c", "b", "a"),
			ir.BMul("e", "c", "c"),
			ir.BStore(ir.Aff("X", 1, 0), "e"),
		},
		Start: 1, Step: 1, TripVar: "n", LiveOut: []string{"e"},
	}
}

// TestUnwoundCloneIdentical deep-clones a scheduled pipeline and
// requires the copy to be structurally indistinguishable: same graph
// rendering, valid invariants, same op list, and an allocator that
// continues from the same point.
func TestUnwoundCloneIdentical(t *testing.T) {
	res, err := PerfectPipeline(context.Background(), cloneTestLoop(), DefaultConfig(machine.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	uw := res.Unwound
	c := uw.Clone()

	if err := c.G.Validate(); err != nil {
		t.Fatalf("cloned graph invalid: %v", err)
	}
	if got, want := c.G.String(), uw.G.String(); got != want {
		t.Errorf("clone renders differently:\n--- original ---\n%s\n--- clone ---\n%s", want, got)
	}
	if len(c.Ops) != len(uw.Ops) {
		t.Fatalf("clone has %d ops, original %d", len(c.Ops), len(uw.Ops))
	}
	for i := range c.Ops {
		if c.Ops[i] == uw.Ops[i] {
			t.Fatalf("op %d is shared, not cloned", i)
		}
		if c.Ops[i].String() != uw.Ops[i].String() {
			t.Errorf("op %d differs: %s != %s", i, c.Ops[i], uw.Ops[i])
		}
	}
	if c.Alloc == uw.Alloc {
		t.Fatal("allocator shared between clone and original")
	}
	// The next op ID and register each allocator hands out agree.
	if co, uo, cr, ur := c.Alloc.OpID(), uw.Alloc.OpID(), c.Alloc.Reg(), uw.Alloc.Reg(); co != uo || cr != ur {
		t.Errorf("allocator state diverged: next op %d/%d, next reg %d/%d", co, uo, cr, ur)
	}
}

// TestCloneIsolation mutates the clone and requires the original to be
// untouched.
func TestCloneIsolation(t *testing.T) {
	res, err := PerfectPipeline(context.Background(), cloneTestLoop(), DefaultConfig(machine.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	uw := res.Unwound
	before := uw.G.String()

	c := res.Clone()
	g := c.Unwound.G
	// Remove every op of the first main-chain node of the clone.
	n := g.MainChain()[0]
	var ops []*ir.Op
	n.Walk(func(v *graph.Vertex) { ops = append(ops, v.Ops...) })
	for _, op := range ops {
		g.RemoveOp(op)
	}
	g.SpliceOutEmpty(n)

	if uw.G.String() != before {
		t.Error("mutating the clone changed the original graph")
	}
	if err := uw.G.Validate(); err != nil {
		t.Errorf("original graph invalid after clone mutation: %v", err)
	}
}

// TestCloneSimulatesIdentically runs the cloned schedule in the
// simulator against the original's results.
func TestCloneSimulatesIdentically(t *testing.T) {
	spec := cloneTestLoop()
	res, err := PerfectPipeline(context.Background(), spec, DefaultConfig(machine.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	clone := res.Clone()
	arrays := map[string][]int64{"X": make([]int64, res.U+4), "Y": make([]int64, res.U+4)}
	for i := range arrays["Y"] {
		arrays["Y"][i] = int64(i%5 + 1)
	}
	vars := map[string]int64{}
	trips := []int64{spec.Start + 1, spec.Start + int64(res.U)}
	if err := ValidateSemantics(res, vars, arrays, trips); err != nil {
		t.Fatalf("original: %v", err)
	}
	if err := ValidateSemantics(clone, vars, arrays, trips); err != nil {
		t.Fatalf("clone: %v", err)
	}
}

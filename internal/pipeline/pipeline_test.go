package pipeline

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sim"
)

func TestUnwindDeterministicNumbering(t *testing.T) {
	a, err := Unwind(dotLoop(), 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Unwind(dotLoop(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("op counts differ")
	}
	for i := range a.Ops {
		if a.Ops[i].String() != b.Ops[i].String() {
			t.Fatalf("op %d differs: %v vs %v", i, a.Ops[i], b.Ops[i])
		}
	}
	if a.LiveIn["q"] != b.LiveIn["q"] || a.LiveOut["q"] != b.LiveOut["q"] {
		t.Fatal("interface registers differ between identical unwinds")
	}
}

func TestUnwindSSAProperty(t *testing.T) {
	uw, err := Unwind(dotLoop(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defs := map[ir.Reg]bool{}
	for _, op := range uw.Ops {
		if d := op.Def(); d != ir.NoReg {
			if defs[d] {
				t.Fatalf("register r%d defined twice (not SSA)", d)
			}
			defs[d] = true
		}
	}
}

func TestUnwindControlShape(t *testing.T) {
	uw, err := Unwind(dotLoop(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(uw.Ops), 3*6; got != want {
		t.Fatalf("ops = %d, want %d", got, want)
	}
	cjs := 0
	for _, op := range uw.Ops {
		if op.IsBranch() {
			cjs++
			if op.Origin != len(dotLoop().Body)+1 {
				t.Fatalf("cj origin = %d", op.Origin)
			}
		}
	}
	if cjs != 3 {
		t.Fatalf("cjs = %d, want 3", cjs)
	}
}

func TestOptimizeForwardsRecurrenceLoad(t *testing.T) {
	// LL5-shaped loop: load X[k-1] after store X[k-1] must become a
	// copy, then be propagated and eliminated.
	spec := &ir.LoopSpec{
		Name: "t",
		Body: []ir.BodyOp{
			ir.BLoad("a", ir.Aff("X", 1, -1)),
			ir.BLoad("b", ir.Aff("Y", 1, 0)),
			ir.BSub("c", "b", "a"),
			ir.BStore(ir.Aff("X", 1, 0), "c"),
		},
		Start: 1, Step: 1, TripVar: "n",
	}
	uw, err := Unwind(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	before := len(uw.Ops)
	uw.Optimize()
	// One load per iteration after the first should be gone entirely.
	if uw.Removed() < 4 {
		t.Fatalf("removed %d ops (of %d), want >= 4", uw.Removed(), before)
	}
	loads := 0
	for _, op := range uw.Ops {
		if op.IsLoad() && op.Mem.Array == uw.Alloc.Array("X") {
			loads++
		}
	}
	if loads != 1 {
		t.Fatalf("X loads remaining = %d, want 1 (first iteration only)", loads)
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	spec := saxpyLoop()
	res, err := PerfectPipeline(context.Background(), spec, DefaultConfig(machine.New(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSemantics(res, map[string]int64{"q": 1, "r": 2, "t": 3},
		arrays(200), []int64{1, 4, int64(res.U)}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeIndirectStoreInvalidates(t *testing.T) {
	// An indirect store must prevent forwarding across it.
	spec := &ir.LoopSpec{
		Name: "ind",
		Body: []ir.BodyOp{
			ir.BLoad("i", ir.Aff("IX", 1, 0)),
			ir.BLoad("a", ir.Aff("X", 1, 0)),
			ir.BStore(ir.Ind("X", "i", 0), "a"), // may clobber any X cell
			ir.BLoad("b", ir.Aff("X", 1, 0)),    // must NOT forward from a
			ir.BStore(ir.Aff("Y", 1, 0), "b"),
		},
		Step: 1, TripVar: "n",
	}
	uw, err := Unwind(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	uw.Optimize()
	// The second load of each iteration must survive.
	loads := 0
	for _, op := range uw.Ops {
		if op.IsLoad() && op.Mem.Array == uw.Alloc.Array("X") && !op.Mem.Indirect() {
			loads++
		}
	}
	if loads != 2*4 {
		t.Fatalf("X loads = %d, want 8 (no forwarding across indirect store)", loads)
	}
}

func TestDetectPatternRejectsPreludeWork(t *testing.T) {
	// The Figure 9 divergence: without gap prevention on infinite
	// resources the short chains pile into the prelude and no valid
	// kernel exists, even though rows repeat.
	spec := figExample()
	cfg := DefaultConfig(machine.Infinite())
	cfg.Optimize = false
	cfg.GapPrevention = false
	cfg.Unwind = 16
	res, err := PerfectPipeline(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("gap-free convergence reported without gap prevention")
	}

	cfg.GapPrevention = true
	res2, err := PerfectPipeline(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Fatal("gap prevention failed to converge")
	}
	if res2.Kernel.CyclesPerIter() > 1.01 {
		t.Fatalf("gapless kernel rate %.2f, want 1 cycle/iter on infinite resources",
			res2.Kernel.CyclesPerIter())
	}
}

// figExample mirrors harness.PaperExampleLoop (defined here to avoid an
// import cycle): a->b->c long chain with carried a, plus two short
// independent chains.
func figExample() *ir.LoopSpec {
	return &ir.LoopSpec{
		Name: "fig",
		Body: []ir.BodyOp{
			ir.BAddI("x", "x", 1),
			ir.BMulI("y", "x", 3),
			ir.BStore(ir.Aff("OUT", 1, 0), "y"),
			ir.BLoad("p", ir.Aff("P", 1, 0)),
			ir.BStore(ir.Aff("Q", 1, 0), "p"),
			ir.BLoad("r", ir.Aff("R", 1, 0)),
			ir.BStore(ir.Aff("S", 1, 0), "r"),
		},
		Step: 1, TripVar: "n", LiveIn: []string{"x"}, LiveOut: []string{"x"},
	}
}

func TestSimplePipelineSlowerThanPerfect(t *testing.T) {
	spec := figExample()
	cfg := DefaultConfig(machine.New(3))
	cfg.Optimize = false
	simple, err := SimplePipeline(context.Background(), spec, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	perfect, err := PerfectPipeline(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !perfect.Converged {
		t.Fatal("perfect pipelining did not converge")
	}
	if perfect.Speedup < simple.Speedup {
		t.Fatalf("perfect %.2f < simple %.2f", perfect.Speedup, simple.Speedup)
	}
}

func TestMeasuredRate(t *testing.T) {
	spec := dotLoop()
	cfg := DefaultConfig(machine.New(4))
	cfg.Unwind = 24
	res, err := PerfectPipeline(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate, ok := MeasuredRate(res.Unwound.G, 6, 18)
	if !ok {
		t.Fatal("no measured rate")
	}
	if diff := rate - res.CyclesPerIter; diff > 0.3 || diff < -0.3 {
		t.Fatalf("measured %.2f vs kernel %.2f", rate, res.CyclesPerIter)
	}
}

func TestKernelString(t *testing.T) {
	k := &Kernel{Start: 3, Rows: 5, IterSpan: 4}
	if k.CyclesPerIter() != 1.25 {
		t.Fatalf("CyclesPerIter = %v", k.CyclesPerIter())
	}
	if !strings.Contains(k.String(), "4 iter/5 cycles") {
		t.Fatalf("String = %q", k.String())
	}
}

func TestInitStateBindsInterface(t *testing.T) {
	uw, err := Unwind(dotLoop(), 4)
	if err != nil {
		t.Fatal(err)
	}
	st := uw.InitState(map[string]int64{"q": 7, "n": 4}, map[string][]int64{"Z": {1, 2}, "X": {3, 4}})
	if st.Reg(uw.LiveIn["q"]) != 7 {
		t.Fatal("live-in scalar not bound")
	}
	if st.Reg(uw.LiveIn[ir.CounterVar]) != dotLoop().Start {
		t.Fatal("counter not initialized")
	}
	if st.Mem[sim.Key{Arr: uw.Alloc.Array("Z"), Idx: 1}] != 2 {
		t.Fatal("array not bound")
	}
}

package fuzzgen

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/testutil"
	"repro/internal/textir"
)

// printed renders a spec in the textual format for a failure message.
func printed(spec *ir.LoopSpec) string {
	var b strings.Builder
	textir.Print(&b, spec)
	return b.String()
}

// hasKind is the stand-in oracle: "the failure reproduces" means the
// candidate still contains an op of the given kind.
func hasKind(kind ir.Opcode) func(*ir.LoopSpec) bool {
	return func(s *ir.LoopSpec) bool {
		for _, op := range s.Body {
			if op.Kind == kind {
				return true
			}
		}
		return false
	}
}

func TestMinimizeShrinksToCore(t *testing.T) {
	testutil.LeakCheck(t)
	spec := SweepSpec(7)
	if !hasKind(ir.Div)(spec) {
		t.Fatalf("seed 7 has no div; pick another seed: %s", printed(spec))
	}
	min, probes := Minimize(spec, hasKind(ir.Div), 10_000)
	if err := min.Validate(); err != nil {
		t.Fatalf("minimized spec invalid: %v", err)
	}
	if !hasKind(ir.Div)(min) {
		t.Fatal("minimized spec no longer reproduces")
	}
	if len(min.Body) >= len(spec.Body) {
		t.Errorf("no shrink: %d -> %d body ops (%d probes)", len(spec.Body), len(min.Body), probes)
	}
	// A single div is a valid one-op loop; greedy should get all the way
	// there (nothing else is load-bearing for this oracle).
	if len(min.Body) > 1 {
		t.Errorf("minimized to %d ops, want 1:\n%s", len(min.Body), printed(min))
	}
}

func TestMinimizeSimplifiesReferences(t *testing.T) {
	testutil.LeakCheck(t)
	spec := &ir.LoopSpec{
		Name: "m", TripVar: "n", Step: 1,
		LiveIn: []string{"c0", "c1"},
		Body: []ir.BodyOp{
			ir.BMul("t0", "c0", "c1"),
			ir.BStore(ir.Aff("M0", 2, 5), "t0"),
		},
	}
	min, _ := Minimize(spec, hasKind(ir.Store), 10_000)
	if n := len(min.Body); n != 2 {
		t.Fatalf("body = %d ops, want 2 (store + its operand def):\n%s", n, printed(min))
	}
	st := min.Body[1]
	if st.Kind != ir.Store || st.Mem.KCoef != 1 || st.Mem.Off != 0 {
		t.Errorf("store reference not simplified to M0[k]: %+v", st.Mem)
	}
	if min.Body[0].Kind != ir.Copy {
		t.Errorf("operand def not simplified to a copy: %+v", min.Body[0])
	}
	if len(min.LiveIn) > 1 {
		t.Errorf("unused live-ins survive: %v", min.LiveIn)
	}
}

func TestMinimizeRespectsBudgetAndInput(t *testing.T) {
	testutil.LeakCheck(t)
	spec := SweepSpec(11)
	snapshot := spec.Clone()
	_, probes := Minimize(spec, func(*ir.LoopSpec) bool { return true }, 3)
	if probes > 3 {
		t.Errorf("spent %d probes, budget 3", probes)
	}
	if !reflect.DeepEqual(spec, snapshot) {
		t.Error("Minimize mutated its input spec")
	}
}

func TestMinimizeKeepsFailingOriginalWhenNothingShrinks(t *testing.T) {
	testutil.LeakCheck(t)
	spec := &ir.LoopSpec{
		Name: "solo", TripVar: "n", Step: 1,
		LiveIn: []string{"c0"},
		Body:   []ir.BodyOp{ir.BStore(ir.Aff("M0", 1, 0), "c0")},
	}
	min, _ := Minimize(spec, hasKind(ir.Store), 100)
	if !reflect.DeepEqual(min, spec) {
		t.Errorf("already-minimal spec changed:\n%s", printed(min))
	}
}

package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sim"
)

// validateUnsplit is ValidateSemantics as it was before the reference
// was split out, under an explicit cycle budget: the oracle the split
// must reproduce error for error.
func validateUnsplit(res *Result, vars map[string]int64, arrays map[string][]int64, trips []int64, maxCycles int) error {
	ref, err := Unwind(res.Spec, res.U)
	if err != nil {
		return err
	}
	refG := ref.BuildGraph()
	for _, trip := range trips {
		v := map[string]int64{}
		for k, val := range vars {
			v[k] = val
		}
		v[res.Spec.TripVar] = trip

		refRes, err := sim.Run(refG, ref.InitState(v, arrays), maxCycles)
		if err != nil {
			return fmt.Errorf("trip %d: reference: %w", trip, err)
		}
		gotRes, err := sim.Run(res.Unwound.G, res.Unwound.InitState(v, arrays), maxCycles)
		if err != nil {
			return fmt.Errorf("trip %d: scheduled: %w", trip, err)
		}
		var outRegs []ir.Reg
		for _, r := range ref.LiveOut {
			outRegs = append(outRegs, r)
		}
		if err := sim.Equivalent(refRes.State, gotRes.State, outRegs); err != nil {
			return fmt.Errorf("trip %d: %w", trip, err)
		}
	}
	return nil
}

// incLoop is y[k] = x[k] + 1: iteration 0's add feeds one store and
// nothing else, so corrupting it changes exactly one memory cell and
// every validator reports the same difference.
func incLoop() *ir.LoopSpec {
	return &ir.LoopSpec{
		Name: "inc",
		Body: []ir.BodyOp{
			ir.BLoad("t", ir.Aff("X", 1, 0)),
			ir.BAddI("u", "t", 1),
			ir.BStore(ir.Aff("Y", 1, 0), "u"),
		},
		Step: 1, TripVar: "n",
	}
}

// corruptFirstAdd bumps the immediate of every copy of iteration 0's add
// in res's scheduled graph.
func corruptFirstAdd(t *testing.T, res *Result) {
	t.Helper()
	hit := 0
	for _, n := range res.Unwound.G.Order() {
		n.Walk(func(v *graph.Vertex) {
			for _, op := range v.Ops {
				if op.Kind == ir.Add && op.Origin == 1 && op.Iter == 0 {
					op.Imm++
					hit++
				}
			}
		})
	}
	if hit == 0 {
		t.Fatal("iteration 0's add is not in the scheduled graph")
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestReferenceSplitMatchesValidateSemantics: NewReference followed by
// Check returns exactly what ValidateSemantics, and the unsplit oracle
// before it, return: for a clean schedule, for a schedule with one
// corrupted op, and for a reference that exhausts the cycle budget.
func TestReferenceSplitMatchesValidateSemantics(t *testing.T) {
	spec := incLoop()
	vars := map[string]int64{}
	in := arrays(64)
	res, err := PerfectPipeline(context.Background(), spec, DefaultConfig(machine.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	trips := []int64{1, int64(res.U) / 3, int64(res.U)}
	split := func(maxCycles int) error {
		ref, err := newReference(spec, res.U, vars, in, trips, maxCycles)
		if err != nil {
			return err
		}
		return ref.Check(res)
	}
	budget := 100 * (res.U*spec.SeqOpsPerIter() + 100)

	for _, c := range []struct {
		name    string
		corrupt bool
		budget  int
		want    string // prefix of the expected error text
	}{
		{"clean", false, budget, "<nil>"},
		{"reference over budget", false, 2, "trip 1: reference: sim: "},
		{"corrupted op", true, budget, "trip 1: mem["},
	} {
		if c.corrupt {
			corruptFirstAdd(t, res)
		}
		got, want := split(c.budget), validateUnsplit(res, vars, in, trips, c.budget)
		if errText(got) != errText(want) {
			t.Errorf("%s: split = %v, unsplit oracle %v", c.name, got, want)
		}
		if c.budget == budget {
			if vs := ValidateSemantics(res, vars, in, trips); errText(vs) != errText(want) {
				t.Errorf("%s: ValidateSemantics = %v, unsplit oracle %v", c.name, vs, want)
			}
		}
		if !strings.HasPrefix(errText(got), c.want) {
			t.Errorf("%s: err = %v, want prefix %q", c.name, got, c.want)
		}
		if wraps := errors.Is(got, sim.ErrCycleBudget); wraps != errors.Is(want, sim.ErrCycleBudget) || wraps != (c.budget < budget) {
			t.Errorf("%s: split wraps sim.ErrCycleBudget: %v, unsplit: %v", c.name, wraps, errors.Is(want, sim.ErrCycleBudget))
		}
	}
}

// TestReferenceSharedAcrossResults: two schedules of one loop at one
// unwind factor check against one reference, from two goroutines at
// once (under -race, the shared initial states must only be read); one
// of them passes a second check too, and the checks leave every initial
// state as it was; corrupting one of them fails it alone, and the
// reference stays fit for the other. A schedule at another factor is refused: it would pass
// a reference of a smaller factor without ever running its deeper
// trips.
func TestReferenceSharedAcrossResults(t *testing.T) {
	spec := incLoop()
	vars := map[string]int64{}
	in := arrays(64)
	var results []*Result
	for i, u := range []int{12, 12, 24} {
		cfg := DefaultConfig(machine.New(2 << i))
		cfg.Unwind = u
		res, err := PerfectPipeline(context.Background(), spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	trips := []int64{1, 4, 12}
	ref, err := NewReference(spec, 12, vars, in, trips)
	if err != nil {
		t.Fatal(err)
	}
	inits := make([]string, len(ref.runs))
	for i, run := range ref.runs {
		inits[i] = run.init.Dump()
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, res := range results[:2] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = ref.Check(res)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("result %d: %v", i, err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		if err := ref.Check(results[0]); err != nil {
			t.Errorf("result 0, check %d: %v", pass, err)
		}
	}
	for i, run := range ref.runs {
		if run.init.Dump() != inits[i] {
			t.Errorf("trip %d: checking wrote into the shared initial state", run.trip)
		}
	}
	if err := ref.Check(results[2]); err == nil {
		t.Error("a schedule unwound 24 times passed a reference unwound 12 times")
	}
	bad, good := results[1], results[0]
	corruptFirstAdd(t, bad)
	err = ref.Check(bad)
	if err == nil {
		t.Fatal("the corrupted result passed the shared reference")
	}
	if want := ValidateSemantics(bad, vars, in, trips); errText(err) != errText(want) {
		t.Errorf("shared reference = %v, ValidateSemantics %v", err, want)
	}
	if err := ref.Check(good); err != nil {
		t.Errorf("the clean result fails after its sibling did: %v", err)
	}
}

package livermore

import (
	"fmt"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sim"
)

// TestNativeAgreement executes every kernel's unwound IR in the
// simulator (unscheduled, unoptimized) and demands bit-identical arrays
// and live-out scalars against the native Go implementation, for both a
// full run and an early exit. This validates the hand translation of
// each Livermore kernel.
func TestNativeAgreement(t *testing.T) {
	const U = 10
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			uw, err := pipeline.Unwind(k.Spec, U)
			if err != nil {
				t.Fatal(err)
			}
			g := uw.BuildGraph()
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, iters := range []int{3, U} {
				trip := k.Spec.Start + int64(iters)
				vars := map[string]int64{}
				for v, val := range k.Vars {
					vars[v] = val
				}
				vars[k.Spec.TripVar] = trip
				arrays := k.Arrays(U + 4)
				res, err := sim.Run(g, uw.InitState(vars, arrays), 100000)
				if err != nil {
					t.Fatalf("iters=%d: sim: %v", iters, err)
				}
				wantArrays, wantScalars := k.Native(int(trip), k.Vars, arrays)
				for name, want := range wantArrays {
					arr := uw.Alloc.Array(name)
					for i := range want {
						if got := res.State.Mem[sim.Key{Arr: arr, Idx: int64(i)}]; got != want[i] {
							t.Fatalf("iters=%d: %s[%d] = %d, want %d", iters, name, i, got, want[i])
						}
					}
				}
				for v, want := range wantScalars {
					if got := res.State.Reg(uw.LiveOut[v]); got != want {
						t.Fatalf("iters=%d: %s = %d, want %d", iters, v, got, want)
					}
				}
			}
		})
	}
}

// TestSpecsValidate checks basic authoring invariants on all kernels.
func TestSpecsValidate(t *testing.T) {
	seen := map[string]bool{}
	for i, k := range All() {
		if err := k.Spec.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
		if want := fmt.Sprintf("LL%d", i+1); k.Name != want {
			t.Errorf("kernel %d named %s, want %s", i, k.Name, want)
		}
		if seen[k.Name] {
			t.Errorf("duplicate kernel %s", k.Name)
		}
		seen[k.Name] = true
		if ByName(k.Name) == nil {
			t.Errorf("ByName(%s) = nil", k.Name)
		}
	}
	if ByName("LL99") != nil {
		t.Error("ByName should return nil for unknown kernels")
	}
}

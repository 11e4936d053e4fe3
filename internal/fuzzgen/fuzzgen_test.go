package fuzzgen

import (
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/testutil"
)

func TestSweepSpecDeterministic(t *testing.T) {
	testutil.LeakCheck(t)
	for seed := int64(0); seed < 100; seed++ {
		a, b := SweepSpec(seed), SweepSpec(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%s\nvs\n%s", seed, printed(a), printed(b))
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("seed %d: fingerprints differ", seed)
		}
	}
}

func TestGeneratedSpecsValidAndObservable(t *testing.T) {
	testutil.LeakCheck(t)
	for seed := int64(0); seed < 500; seed++ {
		spec := SweepSpec(seed) // Generate panics on an invalid spec
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		stores := 0
		for _, op := range spec.Body {
			if op.Kind == ir.Store {
				stores++
			}
		}
		if stores == 0 && len(spec.LiveOut) == 0 {
			t.Fatalf("seed %d: nothing observable — every schedule is vacuously correct", seed)
		}
	}
}

func TestSweepCoversParameterSpace(t *testing.T) {
	testutil.LeakCheck(t)
	styles := map[MemStyle]bool{}
	densities := map[float64]bool{}
	accs, nonUnitStep, offsetStart := false, false, false
	for seed := int64(0); seed < 300; seed++ {
		p := SweepParams(seed)
		styles[p.Mem] = true
		densities[p.Density] = true
		if p.Accs > 0 {
			accs = true
		}
		if p.Step != 1 {
			nonUnitStep = true
		}
		if p.Start != 0 {
			offsetStart = true
		}
	}
	for _, s := range []MemStyle{MemNone, MemStream, MemOverlap, MemIndirect, MemMixed} {
		if !styles[s] {
			t.Errorf("300 seeds never drew memory style %v", s)
		}
	}
	if len(densities) < 3 {
		t.Errorf("300 seeds drew only %d density values", len(densities))
	}
	if !accs || !nonUnitStep || !offsetStart {
		t.Errorf("sweep missed an axis: accs=%v nonUnitStep=%v offsetStart=%v",
			accs, nonUnitStep, offsetStart)
	}
}

func TestWorkloadDeterministicAndComplete(t *testing.T) {
	testutil.LeakCheck(t)
	for seed := int64(0); seed < 50; seed++ {
		spec := SweepSpec(seed)
		vars1, arrays1 := Workload(spec)
		vars2, arrays2 := Workload(spec)
		if !reflect.DeepEqual(vars1, vars2) || !reflect.DeepEqual(arrays1, arrays2) {
			t.Fatalf("seed %d: workload not deterministic", seed)
		}
		for _, v := range spec.LiveIn {
			if val, ok := vars1[v]; !ok || val < 1 || val > 7 {
				t.Fatalf("seed %d: live-in %q = %d, want seeded value in [1,7]", seed, v, val)
			}
		}
		if _, ok := vars1[spec.TripVar]; ok {
			t.Fatalf("seed %d: workload set the trip variable — the oracle owns it", seed)
		}
		for _, op := range spec.Body {
			if op.Mem.Array == "" {
				continue
			}
			a, ok := arrays1[op.Mem.Array]
			if !ok || len(a) != ArraySize {
				t.Fatalf("seed %d: array %q missing or mis-sized", seed, op.Mem.Array)
			}
		}
	}
}

func TestWorkloadFollowsFingerprint(t *testing.T) {
	testutil.LeakCheck(t)
	// The workload is a pure function of the fingerprint: a spec parsed
	// back from a corpus file (content-equal, pointer-distinct) gets the
	// exact inputs its failure was found with, and a different spec gets
	// different inputs.
	a := SweepSpec(1)
	clone := a.Clone()
	varsA, arrA := Workload(a)
	varsC, arrC := Workload(clone)
	if !reflect.DeepEqual(varsA, varsC) || !reflect.DeepEqual(arrA, arrC) {
		t.Fatal("content-equal specs got different workloads")
	}
	b := SweepSpec(2)
	varsB, _ := Workload(b)
	if reflect.DeepEqual(varsA, varsB) {
		t.Fatal("distinct specs drew identical live-in values — seeding looks broken")
	}
}

package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/faults"
	"repro/internal/livermore"
	"repro/internal/sched/batch"
	"repro/internal/testutil"
)

// baselineIndex loads BENCH_table1.json and indexes the default-config
// cells by (loop, fus, technique) for bit-identity checks.
func baselineIndex(t *testing.T) map[string]batch.BenchCell {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_table1.json")
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var rep batch.BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	idx := make(map[string]batch.BenchCell, len(rep.Cells))
	for _, c := range rep.Cells {
		if c.Config != "" || c.Error != "" {
			continue
		}
		idx[fmt.Sprintf("%s|%d|%s", c.Loop, c.FUs, c.Technique)] = c
	}
	if len(idx) == 0 {
		t.Fatal("baseline holds no default-config cells")
	}
	return idx
}

func assertCellsMatchBaseline(t *testing.T, label string, idx map[string]batch.BenchCell, outs []batch.Outcome) {
	t.Helper()
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s: %s/%s on %d FUs failed: %v",
				label, o.Job.DisplayName(), o.Job.Technique, o.Job.Machine.OpSlots, o.Err)
		}
		key := fmt.Sprintf("%s|%d|%s", o.Job.DisplayName(), o.Job.Machine.OpSlots, o.Job.Technique)
		want, ok := idx[key]
		if !ok {
			t.Errorf("%s: cell %s missing from baseline", label, key)
			continue
		}
		// Bit-identical: exact float equality against the recorded run.
		if o.Result.Speedup != want.Speedup || o.Result.Converged != want.Converged {
			t.Errorf("%s: cell %s drifted: got speedup=%v converged=%v, baseline %v/%v",
				label, key, o.Result.Speedup, o.Result.Converged, want.Speedup, want.Converged)
		}
	}
}

// TestChaosTableSurvivorsBitIdentical is the chaos acceptance run: the
// paper table under the standard seeded fault schedule, with a disk
// tier. Every cell the faults didn't touch must match the fault-free
// baseline exactly, every failure must rerun clean afterwards, the
// breaker must trip and end the run closed, and nothing may leak.
func TestChaosTableSurvivorsBitIdentical(t *testing.T) {
	testutil.LeakCheck(t)
	kernels, fus := livermore.All(), []int{2, 4, 8}
	if testing.Short() {
		kernels, fus = kernels[:5], []int{2, 4}
	}
	idx := baselineIndex(t)

	opts := DefaultChaos(42)
	opts.Parallelism = 4
	opts.DiskDir = t.TempDir()
	rep, err := ChaosTable(context.Background(), kernels, fus, Table1Techniques, opts)
	if err != nil {
		t.Fatalf("chaos run cut short: %v", err)
	}
	t.Logf("chaos: %+v; fires: compute=%d write=%d read=%d",
		rep.Stats, rep.Plan.Fires(faults.BatchCompute), rep.Plan.Fires(faults.DiskWrite), rep.Plan.Fires(faults.DiskRead))

	if rep.Stats.Jobs != len(kernels)*len(fus)*len(Table1Techniques) {
		t.Fatalf("main pass ran %d jobs, want %d", rep.Stats.Jobs, len(kernels)*len(fus)*len(Table1Techniques))
	}
	// The schedule must actually have hurt: injected panics quarantined,
	// injected compute and write faults fired.
	if rep.Stats.Quarantined == 0 {
		t.Error("no quarantined cells — panic injection never bit")
	}
	if rep.Plan.Fires(faults.BatchCompute) == 0 || rep.Plan.Fires(faults.DiskWrite) == 0 {
		t.Error("fault plan never fired on a required site")
	}
	if !testing.Short() {
		if batch.Summarize(rep.CancelOutcomes).Cancelled == 0 {
			t.Error("cancellation storm cancelled nothing")
		}
	}

	// Survivors are bit-identical to the fault-free baseline, and the
	// recovery pass recomputed every failure cleanly (errors were not
	// cached) to the same baseline values.
	assertCellsMatchBaseline(t, "survivor", idx, rep.Survivors())
	if rep.Stats.Failed > 0 && len(rep.Recovered) != rep.Stats.Failed {
		t.Errorf("recovery reran %d of %d failures", len(rep.Recovered), rep.Stats.Failed)
	}
	assertCellsMatchBaseline(t, "recovered", idx, rep.Recovered)

	// The breaker tripped under write faults and recovered: closed at
	// exit, with the trip count on the record.
	disk := rep.Disk.Stats()
	if disk.BreakerTrips == 0 {
		t.Error("disk breaker never tripped under write faults")
	}
	if disk.Breaker != "closed" {
		t.Errorf("disk breaker ended %q, want closed", disk.Breaker)
	}
	if disk.WriteErrors == 0 {
		t.Error("injected write failures left no WriteErrors trace")
	}
}

// TestChaosNoFaultsAllSurvive runs the chaos path with an empty fault
// schedule: the machinery itself (extra passes, fresh cache, breaker)
// must not perturb a healthy run.
func TestChaosNoFaultsAllSurvive(t *testing.T) {
	testutil.LeakCheck(t)
	kernels, fus := livermore.All(), []int{2, 4, 8}
	if testing.Short() {
		kernels, fus = kernels[:3], []int{2}
	}
	rep, err := ChaosTable(context.Background(), kernels, fus, Table1Techniques,
		ChaosOptions{Seed: 1, Parallelism: 4, DiskDir: t.TempDir()})
	if err != nil {
		t.Fatalf("run cut short: %v", err)
	}
	if rep.Stats.Failed != 0 {
		t.Fatalf("%d cells failed with no faults injected: %+v", rep.Stats.Failed, rep.Stats)
	}
	if rep.Plan.TotalFires() != 0 {
		t.Errorf("empty schedule fired %d faults", rep.Plan.TotalFires())
	}
	if disk := rep.Disk.Stats(); disk.BreakerTrips != 0 || disk.Breaker != "closed" {
		t.Errorf("healthy run disturbed the breaker: %q after %d trips", disk.Breaker, disk.BreakerTrips)
	}
	assertCellsMatchBaseline(t, "cell", baselineIndex(t), rep.Outcomes)
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sched/batch"
)

// TestMetricsMatchBenchmarkJSON pins the workloads and the printed
// metrics' names, units, directions and bounds to BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %s as workload %d", names, w.name, i)
		}
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\nBENCHMARK.json %+v\nbenchmark      %+v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer:\nBENCHMARK.json %+v\nbenchmark      %+v", spec.PerLayer, perLayer)
	}
}

// TestTailLeavesTenItems checks that every workload's item_ms_tail
// percentile has at least ten items above it, at the item count the
// workload really has.
func TestTailLeavesTenItems(t *testing.T) {
	grip, err := gripLoops()
	if err != nil {
		t.Fatal(err)
	}
	fuzz, err := fuzzLoops()
	if err != nil {
		t.Fatal(err)
	}
	items := map[string]int{
		"table1":      len(table1Jobs()),
		"grip-seeded": len(gripJobs(grip)),
		"fuzz-check":  len(fuzz),
	}
	for _, w := range workloads {
		n := items[w.name]
		if above := n - 1 - quantileIndex(n, w.tailQ); above < 10 {
			t.Errorf("%s: p%g of %d items leaves %d above it, want at least 10", w.name, 100*w.tailQ, n, above)
		}
	}
	for _, g := range grip {
		for _, f := range fuzz {
			if g.Fingerprint() == f.Fingerprint() {
				t.Fatalf("grip-seeded and fuzz-check share loop %s", g.Name)
			}
		}
	}
}

// TestReplicaMatchesRegistry holds the traced replay to the registered
// backends on a small slice: LL3 and LL7 at 2 FUs, every technique.
func TestReplicaMatchesRegistry(t *testing.T) {
	ctx := context.Background()
	r := newReplica(newTracer())
	for _, name := range []string{"LL3", "LL7"} {
		k := livermore.ByName(name)
		for _, tech := range sched.Names() {
			j := batch.Job{Technique: tech, Spec: k.Spec, Machine: machine.New(2), Label: k.Name}
			got, _, _, err := r.job(ctx, j)
			if err != nil {
				t.Fatalf("%s: replay: %v", got.ID, err)
			}
			want, err := sched.Schedule(ctx, tech, j.Request())
			if err != nil {
				t.Fatalf("%s: registry: %v", got.ID, err)
			}
			if got.M != want.Metrics {
				t.Errorf("%s: replay %+v, registry %+v", got.ID, got.M, want.Metrics)
			}
		}
	}
}

package main

import (
	"math"
	"sort"
)

// metricDef is one printed metric. The same lists, in the same order,
// are BENCHMARK.json's end_to_end and per_layer; a test holds them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are what a --trace 0 run prints, for every workload. The
// time bounds are wide because the speed of a shared 2-vCPU host drifts
// in spells that can outlast a whole run: every round of one 30-second
// grip-seeded run was about a quarter faster than the runs around it.
// Allocation and schedule quality barely move at all, so their bounds
// are tight.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"item_ms_p50", "ms", "lower", 0.25},
	{"item_ms_tail", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.02},
	{"speedup_gm", "x", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.01},
}

// perLayer are what a --trace 1 run prints, for every workload; a layer
// that does not run on a workload reads zero there.
var perLayer = []metricDef{
	// POST, core at infinite width, the upper rungs of the ladder, graph
	// cloning: table1's cost.
	{"post.phase1_ms", "ms", "lower", 0},
	{"core.schedule_inf_ms", "ms", "lower", 0},
	{"core.ns_per_move_inf", "ns", "lower", 0},
	{"pipeline.rung48_ms", "ms", "lower", 0},
	{"pipeline.rung96_ms", "ms", "lower", 0},
	{"graph.clone_ms", "ms", "lower", 0},
	{"post.from_ms", "ms", "lower", 0},
	{"post.ms", "ms", "lower", 0},
	// core and ps at finite width: grip-seeded's cost.
	{"core.schedule_ms", "ms", "lower", 0},
	{"core.ns_per_move", "ns", "lower", 0},
	{"core.moves", "count", "lower", 0},
	{"core.nodes", "count", "lower", 0},
	{"core.arrived", "count", "lower", 0},
	{"core.partial_moves", "count", "lower", 0},
	{"core.barriers", "count", "lower", 0},
	{"core.suspensions", "count", "lower", 0},
	{"core.gapless_rejects", "count", "lower", 0},
	{"core.gapless_reject_ratio", "ratio", "lower", 0},
	{"grip.ms", "ms", "lower", 0},
	// Per-call costs in pipeline, graph, deps and the batch engine.
	{"pipeline.unwind_ms", "ms", "lower", 0},
	{"pipeline.optimize_ms", "ms", "lower", 0},
	{"graph.build_ms", "ms", "lower", 0},
	{"deps.build_ms", "ms", "lower", 0},
	{"deps.priority_ms", "ms", "lower", 0},
	{"pipeline.pattern_ms", "ms", "lower", 0},
	{"pipeline.rung12_ms", "ms", "lower", 0},
	{"pipeline.rung24_ms", "ms", "lower", 0},
	{"pipeline.rungs", "count", "lower", 0},
	{"pipeline.rows", "count", "lower", 0},
	{"pipeline.removed_ops", "count", "higher", 0},
	{"deps.ops", "count", "lower", 0},
	{"batch.jobs", "count", "lower", 0},
	{"batch.overhead_ms", "ms", "lower", 0},
	// The oracle: simulation, reference paths, the harness, the two
	// baselines and the worker pool: fuzz-check's cost.
	{"sim.validate_ms", "ms", "lower", 0},
	{"core.crosscheck_ms", "ms", "lower", 0},
	{"harness.checkloop_ms", "ms", "lower", 0},
	{"modulo.ms", "ms", "lower", 0},
	{"list.ms", "ms", "lower", 0},
	{"batch.busy_frac", "ratio", "higher", 0},
	// The Go runtime.
	{"core.alloc_mb", "MB", "lower", 0},
	{"gc.cycles", "count", "lower", 0},
	{"gc.cpu_s", "s", "lower", 0},
	{"heap.objects_m", "Mobjects", "lower", 0},
	// Input generation, part of set-up.
	{"fuzzgen.generate_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

var perLayerNames = func() map[string]bool {
	names := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		names[d.Name] = true
	}
	return names
}()

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs every metric of defs with its value; a per-layer metric
// without one belongs to a layer the workload never called and reads
// zero.
func report(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// quantileIndex is the nearest-rank index of the q-quantile of n sorted
// values.
func quantileIndex(n int, q float64) int {
	return max(0, min(n-1, int(math.Ceil(q*float64(n)))-1))
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, the mean of the middle two for an even
// count.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var logs float64
	for _, v := range vs {
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(vs)))
}

package main

import (
	"fmt"

	"repro/internal/fuzzgen"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sched/batch"
)

// workload is one of the benchmark's input sets.
type workload struct {
	name string
	// workers is the batch pool size the program runs the items with;
	// 0 is the engine's default, GOMAXPROCS.
	workers int
	// tailQ is item_ms_tail's percentile: the highest that leaves ten
	// items above it at this workload's item count.
	tailQ float64
}

var workloads = []workload{
	// The paper's Table 1, 84 cells on one worker. Four fifths of a
	// cold round is POST phase 1 climbing the unwind ladder on LL7 and
	// LL9, work no other workload does.
	{name: "table1", workers: 1, tailQ: 0.88},
	// GRiP alone on 252 seeded loops at 2/4/8 FUs, 756 cells, the
	// ladder capped at 24: the per-call costs of unwind, graph, DDG and
	// scheduler set-up at real widths, with no POST. The loop count keeps
	// a cold round near a second, so a run takes some 25 rounds.
	{name: "grip-seeded", workers: 1, tailQ: 0.986},
	// harness.CheckLoop on 42 other seeded loops with its default pool:
	// every backend at 2/4/8 FUs with the reference cross-checks on, the
	// simulator and the rate bands.
	{name: "fuzz-check", workers: 0, tailQ: 0.75},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have table1, grip-seeded, fuzz-check)", name)
}

// paperFUs are the paper's machine widths.
var paperFUs = []int{2, 4, 8}

// table1Jobs lists Table 1's cells in the order harness.RunTable runs
// them: kernels, then machine widths, then techniques.
func table1Jobs() []batch.Job {
	var jobs []batch.Job
	for _, k := range livermore.All() {
		for _, f := range paperFUs {
			for _, tech := range harness.Table1Techniques {
				jobs = append(jobs, batch.Job{Technique: tech, Spec: k.Spec, Machine: machine.New(f), Label: k.Name})
			}
		}
	}
	return jobs
}

// The seeded workloads' loops are fuzzgen.SweepSpec loops from two
// fixed, disjoint windows of generator seeds. They do not follow the
// benchmark's --seed: across benchmark seeds, 42 freshly drawn loops
// moved fuzz-check's fastest round between 1.2 and 4.4 s (one loop alone
// took 2.9 s of oracle time), and 798 drawn afresh moved grip-seeded's
// speedup_gm by 2.7% and alloc_mb by 4%, so no bound could tell a
// regression from a different draw. The fuzz-check window holds no loop above 0.2 s; loops
// that slow belong to the fuzz sweeps, not to a throughput figure.
const (
	gripSeedBase = 1 << 20
	fuzzSeedBase = 5 << 19
	seedSpan     = 1 << 19 // generator seeds a window may scan
)

// Each seeded workload takes a fixed quota of loops from every stratum
// of fuzzgen.SweepParams' (body size, accumulator count) space, the two
// parameters that set most of a loop's scheduling cost, so every body
// size and recurrence count is equally represented.
const (
	opsLo, opsN, accsN = 3, 14, 3 // SweepParams: Ops in [3,16], Accs in [0,2]
	gripQuota          = 6        // 42 strata × 6 = 252 loops
	fuzzQuota          = 1        // 42 loops
)

func gripLoops() ([]*ir.LoopSpec, error) { return stratifiedLoops(gripSeedBase, gripQuota) }

func fuzzLoops() ([]*ir.LoopSpec, error) { return stratifiedLoops(fuzzSeedBase, fuzzQuota) }

// stratifiedLoops scans generator seeds upward from base and keeps
// fuzzgen.SweepSpec(s) for every seed s whose parameter point falls in a
// stratum still short of its quota.
func stratifiedLoops(base int64, quota int) ([]*ir.LoopSpec, error) {
	fill := make([]int, opsN*accsN)
	want := quota * len(fill)
	specs := make([]*ir.LoopSpec, 0, want)
	for s := base; len(specs) < want; s++ {
		if s-base >= seedSpan {
			return nil, fmt.Errorf("generator seeds %d..%d fill only %d of %d loops", base, s, len(specs), want)
		}
		p := fuzzgen.SweepParams(s)
		if p.Ops < opsLo || p.Ops >= opsLo+opsN || p.Accs < 0 || p.Accs >= accsN {
			return nil, fmt.Errorf("generator seed %d: ops %d, accumulators %d lie outside the strata", s, p.Ops, p.Accs)
		}
		if k := (p.Ops-opsLo)*accsN + p.Accs; fill[k] < quota {
			fill[k]++
			specs = append(specs, fuzzgen.Generate(s, p))
		}
	}
	return specs, nil
}

// gripJobs are grip-seeded's jobs: GRiP alone on every loop at 2/4/8
// FUs, the ladder capped as the fuzzer caps it, metrics only.
func gripJobs(specs []*ir.LoopSpec) []batch.Job {
	cfg := sched.Config{MaxUnwind: harness.FuzzMaxUnwind}
	jobs := make([]batch.Job, 0, len(paperFUs)*len(specs))
	for _, s := range specs {
		for _, f := range paperFUs {
			jobs = append(jobs, batch.Job{Technique: "grip", Spec: s, Machine: machine.New(f), Config: cfg})
		}
	}
	return jobs
}

// fuzzJobs is harness.CheckLoop's job matrix for one loop: every
// registered technique at 2/4/8 FUs under the fuzzer's configuration.
// With oracle set the jobs are CheckLoop's own (cross-checks on, raw
// results kept); without, they report the same metrics more cheaply.
func fuzzJobs(spec *ir.LoopSpec, oracle bool) []batch.Job {
	cfg := sched.Config{MaxUnwind: harness.FuzzMaxUnwind, CrossCheck: oracle}
	want := sched.WantMetrics
	if oracle {
		want = sched.WantRaw
	}
	var jobs []batch.Job
	for _, f := range paperFUs {
		for _, tech := range sched.Names() {
			jobs = append(jobs, batch.Job{Technique: tech, Spec: spec, Machine: machine.New(f), Config: cfg, Want: want})
		}
	}
	return jobs
}

// cellID names a job in reports: loop@FUs/technique.
func cellID(j batch.Job) string {
	return fmt.Sprintf("%s@%d/%s", j.DisplayName(), j.Machine.OpSlots, j.Technique)
}

package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/livermore"
	"repro/internal/sched"
	"repro/internal/sched/batch"
)

// failure is one item that failed a check.
type failure struct {
	Item string `json:"item"`
	What string `json:"what"`
}

// cell is one job's metrics as the program reported them.
type cell struct {
	ID  string        `json:"id"`
	M   sched.Metrics `json:"m"`
	Err string        `json:"err,omitempty"`
}

// outcomeCell is a batch outcome as a reported cell.
func outcomeCell(o batch.Outcome) cell {
	c := cell{ID: cellID(o.Job)}
	if o.Err != nil {
		c.Err = o.Err.Error()
	} else {
		c.M = o.Result.Metrics
	}
	return c
}

// roundReport is one timed round: a single cold pass over the
// workload's items in a fresh process.
type roundReport struct {
	SetupNS    int64   `json:"setup_ns"` // process start to the first scheduling call
	WallNS     int64   `json:"wall_ns"`  // first job dispatch to last result
	CPUNS      int64   `json:"cpu_ns"`   // process user+sys CPU during the pass
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCCPUSec   float64 `json:"gc_cpu_s"`
	CacheHits  int     `json:"cache_hits"`
	// Jobs, BatchNS and JobNS describe the batch pool: its job count,
	// its wall time and the summed job Wall. They stay zero when the
	// pool runs inside harness.CheckLoop, out of view.
	Jobs    int   `json:"jobs"`
	BatchNS int64 `json:"batch_ns"`
	JobNS   int64 `json:"job_ns"`
	// Items are the items in run order, ItemNS each one's time.
	Items    []string  `json:"items"`
	ItemNS   []int64   `json:"item_ns"`
	Cells    []cell    `json:"cells,omitempty"`
	Failures []failure `json:"failures,omitempty"`
}

// passDone lets a process time one pass only. The POST backend keeps
// its phase-1 schedules in a memo inside the registry, so a second pass
// in the same process reports zero cache hits yet skips most of
// table1's work (0.17 s instead of 1.18 s).
var passDone atomic.Bool

// roundMode runs one timed round.
func roundMode(ctx context.Context, a childArgs) (any, error) {
	if passDone.Swap(true) {
		return nil, errors.New("a process times one pass only: a repeat would find the POST phase-1 memo warm")
	}
	r := &roundReport{}
	var err error
	switch a.w.name {
	case "table1":
		err = table1Round(ctx, a, r)
	case "grip-seeded":
		err = gripRound(ctx, a, r)
	default:
		err = fuzzRound(ctx, a, r)
	}
	return r, err
}

func table1Round(ctx context.Context, a childArgs, r *roundReport) error {
	kernels := livermore.All()
	opts := batch.Options{Parallelism: a.w.workers, Cache: batch.NewCache(1024)}
	m, err := r.begin(a.started)
	if err != nil {
		return err
	}
	_, outs, runErr := harness.RunTable1Ctx(ctx, kernels, paperFUs, opts)
	if err := r.end(m); err != nil {
		return err
	}
	r.BatchNS = r.WallNS
	r.addOutcomes(outs)
	if runErr != nil && len(r.Failures) == 0 {
		return runErr
	}
	return nil
}

func gripRound(ctx context.Context, a childArgs, r *roundReport) error {
	specs, err := gripLoops()
	if err != nil {
		return err
	}
	jobs := gripJobs(specs)
	opts := batch.Options{Parallelism: a.w.workers, Cache: batch.NewCache(len(jobs))}
	m, err := r.begin(a.started)
	if err != nil {
		return err
	}
	outs, runErr := batch.Run(ctx, jobs, opts)
	if err := r.end(m); err != nil {
		return err
	}
	r.BatchNS = r.WallNS
	r.addOutcomes(outs)
	return runErr
}

func fuzzRound(ctx context.Context, a childArgs, r *roundReport) error {
	specs, err := fuzzLoops()
	if err != nil {
		return err
	}
	m, err := r.begin(a.started)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		t := time.Now()
		v, err := harness.CheckLoop(ctx, spec, harness.FuzzOptions{})
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		r.Items = append(r.Items, spec.Name)
		r.ItemNS = append(r.ItemNS, d.Nanoseconds())
		for _, f := range v.Failures {
			r.Failures = append(r.Failures, failure{spec.Name, f.String()})
		}
	}
	return r.end(m)
}

// addOutcomes records a batch run's jobs as the round's items.
func (r *roundReport) addOutcomes(outs []batch.Outcome) {
	r.Jobs = len(outs)
	for _, o := range outs {
		c := outcomeCell(o)
		r.Items = append(r.Items, c.ID)
		r.ItemNS = append(r.ItemNS, o.Wall.Nanoseconds())
		r.JobNS += o.Wall.Nanoseconds()
		r.Cells = append(r.Cells, c)
		if o.CacheHit {
			r.CacheHits++
		}
		if c.Err != "" {
			r.Failures = append(r.Failures, failure{c.ID, c.Err})
		}
	}
}

// meter holds the counters read when a timed pass begins.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	mem0  runtime.MemStats
	gcCPU float64
}

// begin ends set-up and starts the timed pass. Set-up ran from the
// process start to here, the first scheduling call.
func (r *roundReport) begin(started time.Time) (*meter, error) {
	m := &meter{gcCPU: gcCPUSeconds()}
	runtime.ReadMemStats(&m.mem0)
	cpu, err := processCPU()
	if err != nil {
		return nil, err
	}
	m.cpu0 = cpu
	m.t0 = time.Now()
	r.SetupNS = m.t0.Sub(started).Nanoseconds()
	return m, nil
}

// end stops the timed pass and records what it cost.
func (r *roundReport) end(m *meter) error {
	r.WallNS = time.Since(m.t0).Nanoseconds()
	cpu, err := processCPU()
	if err != nil {
		return err
	}
	r.CPUNS = (cpu - m.cpu0).Nanoseconds()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.AllocBytes = mem.TotalAlloc - m.mem0.TotalAlloc
	r.Mallocs = mem.Mallocs - m.mem0.Mallocs
	r.GCCycles = mem.NumGC - m.mem0.NumGC
	r.GCCPUSec = gcCPUSeconds() - m.gcCPU
	return nil
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// gcCPUSeconds is the runtime's estimate of the CPU time spent in
// garbage collection so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// checkReport is the check process's verdicts and, for fuzz-check, the
// registry's metrics for every cell CheckLoop judged.
type checkReport struct {
	Cells    []cell    `json:"cells,omitempty"`
	Failures []failure `json:"failures,omitempty"`
}

// checkMode runs the output checks that need a process of their own,
// outside every timed pass. table1 proves each GRiP cell equivalent to
// its source loop with harness.ValidateCell; fuzz-check asks the
// registry for the metrics CheckLoop judges but does not return.
func checkMode(ctx context.Context, a childArgs) (any, error) {
	rep := &checkReport{}
	switch a.w.name {
	case "table1":
		for _, k := range livermore.All() {
			for _, f := range paperFUs {
				if err := harness.ValidateCell(k, f, sched.Config{}); err != nil {
					rep.Failures = append(rep.Failures, failure{fmt.Sprintf("%s@%d/grip", k.Name, f), err.Error()})
				}
			}
		}
	case "fuzz-check":
		specs, err := fuzzLoops()
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			outs, err := batch.Run(ctx, fuzzJobs(spec, false), batch.Options{Parallelism: a.w.workers})
			if err != nil {
				return nil, err
			}
			for _, o := range outs {
				c := outcomeCell(o)
				rep.Cells = append(rep.Cells, c)
				if c.Err != "" {
					rep.Failures = append(rep.Failures, failure{spec.Name, c.ID + ": " + c.Err})
				}
			}
		}
	}
	return rep, nil
}

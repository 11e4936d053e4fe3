// Package batch executes scheduling jobs against the sched registry
// concurrently: a worker pool with configurable parallelism, context
// cancellation, per-job timeouts, and an in-memory metrics cache (see
// Cache) with single-flight dedup keyed by a canonical fingerprint of
// (technique, loop spec, machine, configuration), so repeated table
// cells — figure passes, config sweeps — cost nothing within a
// process.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Job is one scheduling request: run Technique for Spec on Machine
// under Config.
type Job struct {
	Technique string
	Spec      *ir.LoopSpec
	Machine   machine.Machine
	// Config overrides the technique's paper-default configuration for
	// this job; the zero value is the paper default. Its fingerprint
	// joins Key, so jobs differing only in configuration (a sweep over
	// unwind factors, say) occupy distinct cache entries.
	Config sched.Config
	// Label is a display name for reports (e.g. the Livermore kernel
	// name); it does not participate in the cache key. Empty means the
	// spec's own name.
	Label string
	// Want hints whether this job needs the raw attachment (validation
	// paths do; table cells do not). It is retention advice, not
	// experiment identity, so it does not participate in Key. The cache
	// holds metrics only, so a WantRaw job always computes and neither
	// reads nor writes it.
	Want sched.Want
}

// DisplayName returns the job's label, falling back to the spec name.
func (j Job) DisplayName() string {
	if j.Label != "" {
		return j.Label
	}
	return j.Spec.Name
}

// Request returns the job as the registry's first-class request triple.
func (j Job) Request() sched.Request {
	return sched.Request{Spec: j.Spec, Machine: j.Machine, Config: j.Config, Want: j.Want}
}

// Key returns the job's canonical cache key: the technique joined with
// the request fingerprint, which covers the loop, the machine, and the
// configuration. Two jobs with equal keys produce bit-identical
// results.
func (j Job) Key() string {
	return j.Technique + "|" + j.Request().Fingerprint()
}

// Outcome is the result of one job. Outcomes are returned in job order
// regardless of execution order, so batch output is deterministic.
type Outcome struct {
	Job    Job
	Result *sched.Result
	Err    error
	// Wall is the time this job spent computing; zero when the result
	// came from the cache or from another job's shared in-flight
	// computation (CacheHit true).
	Wall     time.Duration
	CacheHit bool
	// Tier reports what served the result: TierCompute when this job
	// ran the scheduler (CacheHit false), TierMemory or TierFlight
	// otherwise.
	Tier Tier
}

// Options tune a batch run.
type Options struct {
	// Parallelism is the worker count; 0 means GOMAXPROCS.
	Parallelism int
	// Timeout bounds each job's wall time — computing, or waiting on
	// another job's shared in-flight computation; 0 means no limit. A
	// job that exceeds it fails with context.DeadlineExceeded. Backends
	// observe the deadline through the context threaded into their step
	// loops, so the computation itself stops — nothing is abandoned to
	// burn CPU in the background. (A backend that never checks its
	// context effectively has no timeout; all registered techniques
	// check.)
	Timeout time.Duration
	// Cache, when set, is consulted before running a metrics-only job
	// and updated after a success. Callers can share one cache across
	// batches. Identical in-flight jobs (same fingerprint key) share one
	// computation — single-flight dedup — so submitting duplicates is
	// merely redundant, not wasteful. WantRaw and CrossCheck jobs bypass
	// it entirely (see runOne).
	Cache *Cache
	// AfterJob, when set, runs on the worker right after job i's
	// outcome is final, before that worker takes another job, so the
	// worker count bounds its concurrency too and Run returns only
	// after every call has. It sees the outcome Run returns (Wall
	// excludes it) and must be safe for concurrent use. A job that a
	// cancelled run never hands to a worker skips it.
	AfterJob func(i int, o Outcome)
}

// Run executes the jobs and returns one outcome per job, in job order.
// Cancelling ctx stops dispatching new jobs and interrupts running
// ones; jobs not yet started fail with ctx.Err(). The returned error is
// ctx.Err() when the run was cut short — some job was skipped or
// interrupted by the context — and nil otherwise, even if ctx expires
// after the last job finished. Per-job failures are reported in the
// outcomes, not the run error, so one diverging cell doesn't hide the
// rest.
func Run(ctx context.Context, jobs []Job, opts Options) ([]Outcome, error) {
	workers := EffectiveParallelism(opts.Parallelism, len(jobs))
	outcomes := make([]Outcome, len(jobs))
	var cut atomic.Bool
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outcomes[i] = runOne(ctx, jobs[i], opts, &cut)
				if opts.AfterJob != nil {
					opts.AfterJob(i, outcomes[i])
				}
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Indices >= i were never handed to a worker; fail them here.
			cut.Store(true)
			for j := i; j < len(jobs); j++ {
				outcomes[j] = Outcome{Job: jobs[j], Err: ctx.Err()}
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if cut.Load() {
		return outcomes, ctx.Err()
	}
	return outcomes, nil
}

// EffectiveParallelism returns the worker count Run actually uses when
// p is requested for a batch of n jobs: 0 or negative means GOMAXPROCS,
// and the count never exceeds the job count. Bench reports should
// record this, not the raw flag value.
func EffectiveParallelism(p, n int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	return p
}

// runOne runs one job on the worker's own goroutine. Cancellation is
// cooperative: the backend's step loop observes the job context and
// returns its error, which mapErr turns into the batch context's error
// (run cut short) or a per-job DeadlineExceeded.
func runOne(ctx context.Context, j Job, opts Options, cut *atomic.Bool) Outcome {
	out := Outcome{Job: j}
	if err := ctx.Err(); err != nil {
		cut.Store(true)
		out.Err = err
		return out
	}
	// The per-job budget covers everything below: computing, and
	// waiting on another job's shared in-flight computation.
	runCtx := ctx
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	// The compute closure is the panic-isolation perimeter: a backend
	// panic is recovered into a typed *sched.PanicError carrying the
	// job key and stack, so one poisoned cell fails alone — the worker
	// goroutine survives and the rest of the batch proceeds. Like any
	// error it is not shared, so a single-flight waiter retries.
	compute := func() (res *sched.Result, err error) {
		defer func() {
			if v := recover(); v != nil {
				res, err = nil, &sched.PanicError{Key: j.Key(), Value: v, Stack: debug.Stack()}
			}
		}()
		s, ok := sched.Lookup(j.Technique)
		if !ok {
			return nil, fmt.Errorf("batch: unknown technique %q (have %v)", j.Technique, sched.Names())
		}
		return s.Schedule(runCtx, j.Request())
	}
	start := time.Now()
	// The cache answers only metrics-only, unchecked jobs. It holds no
	// graphs, so a WantRaw job computes and its attachment belongs to
	// this caller alone. A CrossCheck job exists to run the reference
	// checks, which a hit would skip, and CrossCheck is not part of the
	// key. Neither reads nor writes the cache.
	if opts.Cache != nil && j.Want == sched.WantMetrics && !j.Config.CrossCheck {
		out.Result, out.Tier, out.Err = opts.Cache.getOrCompute(runCtx, j.Key(), compute)
		out.CacheHit = out.Tier != TierCompute
		if !out.CacheHit {
			out.Wall = time.Since(start)
		}
	} else {
		out.Result, out.Err = compute()
		out.Wall = time.Since(start)
	}
	out.Err = mapErr(ctx, runCtx, j, out.Err, cut)
	return out
}

// mapErr classifies a job failure: the batch context's own error cuts
// the run short, a per-job deadline becomes a labeled DeadlineExceeded,
// and anything else passes through.
func mapErr(ctx, runCtx context.Context, j Job, err error, cut *atomic.Bool) error {
	if err == nil {
		return nil
	}
	if cause := ctx.Err(); cause != nil && errors.Is(err, cause) {
		cut.Store(true)
		return cause
	}
	if errors.Is(err, context.DeadlineExceeded) && runCtx.Err() != nil {
		return fmt.Errorf("batch: %s on %s: %w", j.Technique, j.DisplayName(), context.DeadlineExceeded)
	}
	return err
}

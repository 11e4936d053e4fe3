package harness

import (
	"context"
	"errors"
	"math/rand"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/livermore"
	"repro/internal/sched"
	"repro/internal/sched/batch"
	"repro/internal/sched/store"
)

// Injected chaos errors. ErrChaosCompute is transient-looking (a plain
// error on the compute path); disk writes inject ENOSPC so the store's
// no-point-retrying classification is exercised too.
var (
	ErrChaosCompute = errors.New("chaos: injected compute failure")
	ErrChaosIO      = errors.New("chaos: injected disk I/O failure")
)

// ChaosOptions configure one chaos run: a periodic fault schedule over
// the batch compute path and the disk tier, plus a seeded cancellation
// storm. The zero value injects nothing; DefaultChaos returns the
// standard schedule the CLI and the chaos suite run.
type ChaosOptions struct {
	// Seed drives every random decision (cancellation subset, retry
	// jitter), so a run is replayable by seed.
	Seed int64
	// Parallelism and Timeout are the main pass's batch options.
	Parallelism int
	Timeout     time.Duration

	// PanicEvery panics the backend on every Nth compute (quarantine);
	// FailEvery injects a compute error on every Nth compute. 0 = off.
	PanicEvery int
	FailEvery  int

	// WriteFailEvery injects an ENOSPC-style failure on every Nth disk
	// write, capped at WriteFailLimit fires so the breaker can recover;
	// CorruptEvery tears every Nth disk write (the entry is written
	// corrupt and must be rejected on read); ReadFailEvery injects an
	// I/O error on every Nth disk read, capped at ReadFailLimit.
	WriteFailEvery, WriteFailLimit int
	CorruptEvery                   int
	ReadFailEvery, ReadFailLimit   int

	// CancelFraction of the jobs (seeded choice) run in a preliminary
	// pass under CancelTimeout, so a slice of the table is genuinely
	// cancelled mid-compute — cooperative cancellation under fire.
	CancelFraction float64
	CancelTimeout  time.Duration

	// DiskDir, when non-empty, attaches a persistent tier rooted there,
	// opened with Disk (zero value = aggressive chaos breaker: trips on
	// a single failure, 100ms cooldown, jitter seeded by Seed — periodic
	// faults interleave with successes, so a consecutive-failure
	// threshold above 1 would never fire).
	DiskDir string
	Disk    store.DiskOptions
}

// DefaultChaos is the standard fault schedule: every failure mode on,
// at periods chosen to be pairwise coprime-ish so faults interleave
// rather than stack on the same cells.
func DefaultChaos(seed int64) ChaosOptions {
	return ChaosOptions{
		Seed:           seed,
		PanicEvery:     7,
		FailEvery:      11,
		WriteFailEvery: 3,
		WriteFailLimit: 5,
		CorruptEvery:   5,
		ReadFailEvery:  6,
		ReadFailLimit:  4,
		CancelFraction: 0.2,
		CancelTimeout:  3 * time.Millisecond,
	}
}

// plan compiles the options into a fault plan. Rule order
// matters at shared sites: when an ENOSPC period and a corruption
// period coincide on one write, the failure wins.
func (o ChaosOptions) plan() *faults.Plan {
	var rules []faults.Rule
	if o.PanicEvery > 0 {
		rules = append(rules, faults.Rule{Site: faults.BatchCompute, Every: o.PanicEvery, Panic: "chaos schedule"})
	}
	if o.FailEvery > 0 {
		rules = append(rules, faults.Rule{Site: faults.BatchCompute, Every: o.FailEvery, Err: ErrChaosCompute})
	}
	if o.WriteFailEvery > 0 {
		rules = append(rules, faults.Rule{Site: faults.DiskWrite, Every: o.WriteFailEvery, Limit: o.WriteFailLimit, Err: syscall.ENOSPC})
	}
	if o.CorruptEvery > 0 {
		rules = append(rules, faults.Rule{Site: faults.DiskWrite, Every: o.CorruptEvery, Corrupt: true})
	}
	if o.ReadFailEvery > 0 {
		rules = append(rules, faults.Rule{Site: faults.DiskRead, Every: o.ReadFailEvery, Limit: o.ReadFailLimit, Err: ErrChaosIO})
	}
	return faults.NewPlan(rules...)
}

// ChaosReport is the outcome of one chaos run.
type ChaosReport struct {
	// Outcomes is the main pass, in job order (kernels outermost, FU
	// counts inner, techniques innermost — RunTable's order).
	Outcomes []batch.Outcome
	// CancelOutcomes is the preliminary cancellation storm: the seeded
	// job subset run under the tiny per-job timeout.
	CancelOutcomes []batch.Outcome
	// Recovered reruns the main pass's failures with faults disabled:
	// every poisoned or cut cell must compute cleanly afterwards,
	// because errors are never cached.
	Recovered []batch.Outcome
	// Stats summarizes the main pass.
	Stats batch.Stats
	// Plan exposes per-site hit/fire counters for assertions.
	Plan *faults.Plan
	// Disk is the persistent tier, nil when DiskDir was empty; its
	// Stats report the tier's health after all passes.
	Disk *store.Disk
}

// Survivors returns the main pass's successful outcomes — the cells a
// bit-identity check compares against the fault-free baseline.
func (r *ChaosReport) Survivors() []batch.Outcome {
	var ok []batch.Outcome
	for _, o := range r.Outcomes {
		if o.Err == nil {
			ok = append(ok, o)
		}
	}
	return ok
}

// ChaosTable runs the technique matrix under a fault schedule —
// the fault-tolerance acceptance mode. Three passes against one fresh
// tiered cache (never the process-wide shared cache):
//
//  1. a cancellation storm: a seeded fraction of the jobs under a tiny
//     per-job timeout, so cells are genuinely cancelled mid-compute;
//  2. the full matrix with panics, compute errors, torn and failing
//     disk writes, and failing disk reads injected — each poisoned
//     cell fails alone, everything else must compute exactly;
//  3. a recovery pass with faults disabled: the failures rerun clean
//     (errors are never cached), and — when a disk tier is attached —
//     the breaker's half-open probes reclose the circuit.
//
// The fault plan is enabled process-wide for the duration of passes 1
// and 2; do not run concurrent fault-free harness traffic around a
// chaos run.
func ChaosTable(ctx context.Context, kernels []*livermore.Kernel, fus []int, techniques []string, o ChaosOptions) (*ChaosReport, error) {
	if o.CancelTimeout <= 0 {
		o.CancelTimeout = 3 * time.Millisecond
	}
	rep := &ChaosReport{Plan: o.plan()}

	var jobs []batch.Job
	for _, k := range kernels {
		for _, f := range fus {
			jobs = append(jobs, cellJobs(k, f, techniques, sched.Config{})...)
		}
	}

	cache := batch.NewCache(8192)
	if o.DiskDir != "" {
		dopts := o.Disk
		if dopts == (store.DiskOptions{}) {
			dopts = store.DiskOptions{BreakerThreshold: 1, BreakerCooldown: 100 * time.Millisecond, Seed: o.Seed}
		}
		disk, err := store.OpenDiskOptions(o.DiskDir, dopts)
		if err != nil {
			return nil, err
		}
		rep.Disk = disk
		cache.AttachDisk(disk)
	}

	faults.Enable(rep.Plan)
	defer faults.Disable()

	// Pass 1: cancellation storm over a seeded subset.
	rng := rand.New(rand.NewSource(o.Seed))
	var storm []batch.Job
	for _, j := range jobs {
		if rng.Float64() < o.CancelFraction {
			storm = append(storm, j)
		}
	}
	if len(storm) > 0 {
		outs, err := batch.Run(ctx, storm, batch.Options{
			Parallelism: o.Parallelism, Timeout: o.CancelTimeout, Cache: cache})
		rep.CancelOutcomes = outs
		if err != nil {
			return rep, err
		}
	}

	// Pass 2: the full matrix under fire.
	outs, err := batch.Run(ctx, jobs, batch.Options{
		Parallelism: o.Parallelism, Timeout: o.Timeout, Cache: cache})
	rep.Outcomes = outs
	rep.Stats = batch.Summarize(outs)
	if err != nil {
		return rep, err
	}

	// Pass 3: recovery. Faults off; give the breaker its cooldown so
	// the rerun's writes arrive as half-open probes and can reclose it.
	faults.Disable()
	if rep.Disk != nil {
		if st := rep.Disk.Stats(); st.Breaker != "closed" {
			d := o.Disk.BreakerCooldown
			if d <= 0 {
				d = 100 * time.Millisecond
			}
			time.Sleep(d)
		}
	}
	var failed []batch.Job
	for _, out := range outs {
		if out.Err != nil {
			failed = append(failed, out.Job)
		}
	}
	if len(failed) > 0 {
		rec, err := batch.Run(ctx, failed, batch.Options{Parallelism: o.Parallelism, Cache: cache})
		rep.Recovered = rec
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// Package grip is the public facade of the GRiP reproduction: Global
// Resource-constrained Percolation scheduling with Perfect Pipelining
// (Nicolau & Novack, ICPP 1992), plus the baselines the paper compares
// against (POST, Unifiable-ops, modulo scheduling, list scheduling).
//
// Quick start:
//
//	loop := &grip.Loop{
//	    Name: "dot",
//	    Body: []grip.BodyOp{
//	        grip.Load("t1", grip.Aff("Z", 1, 0)),
//	        grip.Load("t2", grip.Aff("X", 1, 0)),
//	        grip.Mul("t3", "t1", "t2"),
//	        grip.Add("q", "q", "t3"),
//	    },
//	    Step: 1, TripVar: "n",
//	    LiveIn: []string{"q"}, LiveOut: []string{"q"},
//	}
//	res, err := grip.PerfectPipeline(loop, grip.Machine(4))
//	fmt.Println(res.Speedup, res.Kernel)
package grip

import (
	"context"

	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/modulo"
	"repro/internal/pipeline"
	"repro/internal/post"
	"repro/internal/sched"
	"repro/internal/sched/batch"
)

// Loop describes an innermost counted loop; see ir.LoopSpec.
type Loop = ir.LoopSpec

// BodyOp is one loop-body operation over named variables.
type BodyOp = ir.BodyOp

// MemRef addresses an array element affinely in the loop counter or
// indirectly through a variable.
type MemRef = ir.BodyRef

// Result reports a pipelining run: convergence, the steady-state kernel,
// cycles per iteration, and the speedup over sequential issue.
type Result = pipeline.Result

// Kernel is the repeating pattern Perfect Pipelining turns into the new
// loop body.
type Kernel = pipeline.Kernel

// Config tunes a run; DefaultConfig(Machine(n)) reproduces the paper's
// setup.
type Config = pipeline.Config

// MachineModel is the VLIW resource model.
type MachineModel = machine.Machine

// Body-op constructors, re-exported for building loops.
var (
	Add   = ir.BAdd
	Sub   = ir.BSub
	Mul   = ir.BMul
	Div   = ir.BDiv
	AddI  = ir.BAddI
	MulI  = ir.BMulI
	Copy  = ir.BCopy
	Load  = ir.BLoad
	Store = ir.BStore
	Aff   = ir.Aff
	Ind   = ir.Ind
)

// Machine returns a VLIW with n universal functional units and one
// branch slot per instruction — the paper's machine model.
func Machine(n int) MachineModel { return machine.New(n) }

// InfiniteMachine returns the unconstrained configuration.
func InfiniteMachine() MachineModel { return machine.Infinite() }

// DefaultConfig is the paper-faithful configuration for machine m.
func DefaultConfig(m MachineModel) Config { return pipeline.DefaultConfig(m) }

// PerfectPipeline pipelines the loop with GRiP on a machine with the
// given model, unwinding until the steady-state pattern converges.
func PerfectPipeline(loop *Loop, m MachineModel) (*Result, error) {
	return pipeline.PerfectPipeline(context.Background(), loop, pipeline.DefaultConfig(m))
}

// PerfectPipelineConfig is PerfectPipeline with full control. The
// context cancels the run mid-schedule (the step loops observe it), so
// callers can bound pathological configurations with a deadline.
func PerfectPipelineConfig(ctx context.Context, loop *Loop, cfg Config) (*Result, error) {
	return pipeline.PerfectPipeline(ctx, loop, cfg)
}

// SimplePipeline unwinds the loop n times and compacts the block without
// re-forming a steady state (the paper's Figure 6 comparison).
func SimplePipeline(loop *Loop, m MachineModel, n int) (*Result, error) {
	return pipeline.SimplePipeline(context.Background(), loop, pipeline.DefaultConfig(m), n)
}

// Post pipelines with the POST baseline: infinite-resource GRiP followed
// by a resource-constraining post-pass.
func Post(loop *Loop, m MachineModel) (*Result, error) {
	return post.Pipeline(context.Background(), loop, pipeline.DefaultConfig(m))
}

// Modulo runs the iterative modulo-scheduling baseline and returns its
// initiation interval and speedup.
func Modulo(loop *Loop, m MachineModel) (*modulo.Result, error) {
	return modulo.Schedule(context.Background(), loop, m)
}

// ListSchedule compacts a single iteration with no pipelining.
func ListSchedule(loop *Loop, m MachineModel) *listsched.Result {
	return listsched.Schedule(loop, m)
}

// SchedResult is the result every registered scheduling backend
// reports: normalized metrics plus an optional raw attachment
// (requested via SchedRequest.Want, accessed via Raw). No cache holds
// the attachment, so it belongs to the caller that asked for it.
type SchedResult = sched.Result

// SchedMetrics is the normalized, serializable metrics tier of a
// scheduling result (speedup, cycles/iteration, convergence, kernel
// shape, barrier count) — the part persistent caches keep for every
// fingerprint.
type SchedMetrics = sched.Metrics

// SchedWant hints what a request needs beyond the metrics; it never
// joins cache keys.
type SchedWant = sched.Want

// Re-exported Want values.
const (
	WantMetrics = sched.WantMetrics
	WantRaw     = sched.WantRaw
)

// SchedBackend is the uniform interface scheduling techniques implement.
type SchedBackend = sched.Scheduler

// SchedRequest is a first-class scheduling request: the (loop, machine,
// configuration) triple that identifies an experiment and keys result
// caches.
type SchedRequest = sched.Request

// SchedConfig is a per-request override of a technique's paper-default
// configuration; the zero value is the paper default, and its
// fingerprint joins batch cache keys, so sweeps over unwind factors or
// gap-prevention settings cache correctly per configuration.
type SchedConfig = sched.Config

// BatchJob is one scheduling request for the batch engine.
type BatchJob = batch.Job

// BatchOutcome is the per-job result of a batch run, in job order.
type BatchOutcome = batch.Outcome

// BatchOptions tune a batch run: worker parallelism, per-job timeout,
// and an optional shared result cache with single-flight dedup.
type BatchOptions = batch.Options

// BatchCache is the thread-safe metrics cache keyed by (technique,
// loop fingerprint, machine fingerprint, config fingerprint): an
// in-memory LRU whose single-flight runs identical in-flight jobs once.
// It answers only metrics-only jobs without CrossCheck; every other job
// computes. Cache hits and flight waiters share one result, so treat
// it as read-only.
type BatchCache = batch.Cache

// Schedulers lists the registered scheduling techniques ("grip",
// "list", "modulo", "post", ...). Any name it returns is valid for
// Scheduler, Schedule, and BatchJob.Technique.
func Schedulers() []string { return sched.Names() }

// Scheduler returns the backend registered under name.
func Scheduler(name string) (SchedBackend, bool) { return sched.Lookup(name) }

// Schedule runs the named technique for the loop on machine m under the
// paper-default configuration and returns the normalized result.
// Cancelling ctx (or attaching a deadline) stops the computation.
func Schedule(ctx context.Context, name string, loop *Loop, m MachineModel) (*SchedResult, error) {
	return sched.Schedule(ctx, name, SchedRequest{Spec: loop, Machine: m})
}

// ScheduleRequest runs the named technique for a full request,
// configuration included.
func ScheduleRequest(ctx context.Context, name string, req SchedRequest) (*SchedResult, error) {
	return sched.Schedule(ctx, name, req)
}

// Batch executes scheduling jobs concurrently through the registry:
// a worker pool with context cancellation, per-job timeouts that
// actually stop the scheduling work, and an optional LRU result cache
// with single-flight dedup. Outcomes are returned in job order and are
// bit-identical to a sequential run — every technique is a pure
// function of (loop, machine, configuration).
func Batch(ctx context.Context, jobs []BatchJob, opts BatchOptions) ([]BatchOutcome, error) {
	return batch.Run(ctx, jobs, opts)
}

// NewBatchCache returns an LRU result cache to share across Batch runs.
func NewBatchCache(capacity int) *BatchCache { return batch.NewCache(capacity) }

// Validate proves a pipelined result semantically equivalent to the
// original loop on the given inputs, including early-exit trip counts
// that execute the drain code.
func Validate(res *Result, vars map[string]int64, arrays map[string][]int64, trips []int64) error {
	return pipeline.ValidateSemantics(res, vars, arrays, trips)
}

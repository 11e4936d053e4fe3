package sched

import (
	"context"

	"repro/internal/listsched"
	"repro/internal/lru"
	"repro/internal/modulo"
	"repro/internal/pipeline"
	"repro/internal/post"
)

// phase1MemoCap bounds the POST phase-1 memo. Keep it comfortably
// above the workload corpus (14 Livermore kernels today, times the
// handful of configurations a sweep touches) so a full table run never
// evicts mid-batch and silently recomputes the work the memo exists to
// dedupe.
const phase1MemoCap = 64

// The four paper techniques register themselves under the names the CLI
// has always used.
func init() {
	Register(gripScheduler{})
	Register(postScheduler{memo: lru.New[string, *pipeline.Result](phase1MemoCap)})
	Register(moduloScheduler{})
	Register(listScheduler{})
}

// fromPipeline normalizes a pipeline result, attaching the raw result
// only when the request asked for it — a metrics-only result does not
// pin the unwound graph, so caches holding it stay tiny.
func fromPipeline(name string, res *pipeline.Result, want Want) *Result {
	m := Metrics{
		Technique:     name,
		Loop:          res.Spec.Name,
		CyclesPerIter: res.CyclesPerIter,
		Speedup:       res.Speedup,
		Converged:     res.Converged,
		Rows:          res.Rows,
		Barriers:      res.Stats.ResourceBarriers,
	}
	if res.Kernel != nil {
		m.KernelRows = res.Kernel.Rows
		m.KernelIterSpan = res.Kernel.IterSpan
	}
	return NewResult(m, attach(want, res))
}

// attach returns the raw value when the request wants it, nil
// otherwise.
func attach(want Want, raw any) any {
	if want == WantRaw {
		return raw
	}
	return nil
}

// gripScheduler is the paper's technique: Perfect Pipelining with
// resource constraints integrated into global scheduling.
type gripScheduler struct{}

func (gripScheduler) Name() string { return "grip" }

func (gripScheduler) Schedule(ctx context.Context, req Request) (*Result, error) {
	res, err := pipeline.PerfectPipeline(ctx, req.Spec, req.Config.Pipeline(req.Machine))
	if err != nil {
		return nil, err
	}
	return fromPipeline("grip", res, req.Want), nil
}

// postScheduler is the POST baseline. Its first phase — Perfect
// Pipelining at infinite resources — does not depend on the target
// machine's functional-unit count, so the adapter memoizes phase-1
// results per (loop, phase-1 configuration) and hands each post-pass a
// deep copy. Cloning preserves IDs and allocator state, so the
// post-pass on a copy is bit-identical to a from-scratch run
// (batch_test proves it). The memo key carries the full phase-1 config
// fingerprint: requests differing in, say, unwind factor must not share
// phase-1 schedules. It also carries CrossCheck, which the fingerprint
// omits, so a checked request never reuses a phase 1 computed without
// the reference checks.
//
// The memo's single-flight runs phase 1 once per key however many POST
// jobs overlap; the others wait for it within their own ctx. Entries
// are only read and cloned. A phase 1 cut short by its ctx returns the
// ctx's error and stores nothing, so a timed-out request never poisons
// the memo for later ones.
type postScheduler struct {
	memo *lru.Cache[string, *pipeline.Result]
}

func (postScheduler) Name() string { return "post" }

func (s postScheduler) Schedule(ctx context.Context, req Request) (*Result, error) {
	cfg := req.Config.Pipeline(req.Machine)
	p1cfg := post.Phase1Config(cfg)
	key := req.Spec.Fingerprint() + "|" + p1cfg.Fingerprint()
	if p1cfg.CrossCheck {
		key += "|crosscheck"
	}
	phase1, _, err := s.memo.GetOrCompute(ctx, key, func() (*pipeline.Result, error) {
		return pipeline.PerfectPipeline(ctx, req.Spec, p1cfg)
	})
	if err != nil {
		return nil, err
	}
	res, err := post.From(ctx, phase1.Clone(), cfg)
	if err != nil {
		return nil, err
	}
	return fromPipeline("post", res, req.Want), nil
}

// moduloScheduler is the iterative modulo-scheduling baseline. The
// pipelining knobs in req.Config do not apply to it.
type moduloScheduler struct{}

func (moduloScheduler) Name() string { return "modulo" }

func (moduloScheduler) Schedule(ctx context.Context, req Request) (*Result, error) {
	res, err := modulo.Schedule(ctx, req.Spec, req.Machine)
	if err != nil {
		return nil, err
	}
	return NewResult(Metrics{
		Technique:      "modulo",
		Loop:           req.Spec.Name,
		CyclesPerIter:  float64(res.II),
		Speedup:        res.Speedup,
		Converged:      true,
		KernelRows:     res.II,
		KernelIterSpan: 1,
		Rows:           res.Makespan,
	}, attach(req.Want, res)), nil
}

// listScheduler is plain greedy compaction of one iteration. The
// pipelining knobs in req.Config do not apply to it; the single pass is
// fast enough that only an already-expired context is worth honoring.
type listScheduler struct{}

func (listScheduler) Name() string { return "list" }

func (listScheduler) Schedule(ctx context.Context, req Request) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := listsched.Schedule(req.Spec, req.Machine)
	return NewResult(Metrics{
		Technique:      "list",
		Loop:           req.Spec.Name,
		CyclesPerIter:  float64(res.Cycles),
		Speedup:        res.Speedup,
		Converged:      true,
		KernelRows:     res.Cycles,
		KernelIterSpan: 1,
		Rows:           res.Cycles,
	}, attach(req.Want, res)), nil
}

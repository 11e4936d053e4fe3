package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/modulo"
	"repro/internal/pipeline"
	"repro/internal/post"
	"repro/internal/ps"
	"repro/internal/sched"
	"repro/internal/sched/batch"
)

// replica replays the registered backends from each layer's public
// entry points, in the order the program calls them, with a span around
// every call. Its cells must equal the program's bit for bit (the
// driver compares every one), so the per-layer numbers describe the
// program and not a copy that drifted: a change to, say, the unwind
// ladder in pipeline.PerfectPipeline fails the traced run until this
// replay follows it.
type replica struct {
	tr  *tracer
	sum map[string]float64 // per-layer sums, in each metric's unit
	// phase1 holds POST's phase-1 results by loop and phase-1
	// configuration, as the registered POST backend's memo does.
	phase1 map[string]*pipeline.Result

	fin, inf   core.Stats    // core.Schedule's work at finite and infinite width
	finT, infT time.Duration // core.Schedule's time at each width
	coreAlloc  uint64        // heap bytes allocated inside core.Schedule
}

func newReplica(tr *tracer) *replica {
	return &replica{tr: tr, sum: map[string]float64{}, phase1: map[string]*pipeline.Result{}}
}

// add adds v to a per-layer metric.
func (r *replica) add(metric string, v float64) {
	if !perLayerNames[metric] {
		panic("gripbench: no per-layer metric " + metric)
	}
	r.sum[metric] += v
}

// call runs fn in a span and adds the span's time, in ms, to metric
// (to none when metric is empty).
func (r *replica) call(name, metric string, fn func()) time.Duration {
	id := r.tr.begin(name)
	fn()
	d := r.tr.end(id)
	if metric != "" {
		r.add(metric, ms(d))
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// job replays one batch job as the registered backend runs it, inside a
// span named after the technique, and returns the job's cell, the
// technique's raw result, and the job's time (batch.Outcome.Wall's
// counterpart).
func (r *replica) job(ctx context.Context, j batch.Job) (cell, any, time.Duration, error) {
	c := cell{ID: cellID(j)}
	if !perLayerNames[j.Technique+".ms"] {
		return c, nil, 0, fmt.Errorf("no layer replay for technique %q", j.Technique)
	}
	cfg := j.Config.Pipeline(j.Machine)
	var raw any
	var err error
	d := r.call(j.Technique, j.Technique+".ms", func() {
		switch j.Technique {
		case "grip":
			var res *pipeline.Result
			if res, err = r.perfectPipeline(ctx, j.Spec, cfg); err == nil {
				c.M, raw = pipelineMetrics("grip", res), res
			}
		case "post":
			var res *pipeline.Result
			if res, err = r.post(ctx, j.Spec, cfg); err == nil {
				c.M, raw = pipelineMetrics("post", res), res
			}
		case "modulo":
			var res *modulo.Result
			r.call("modulo.Schedule", "", func() { res, err = modulo.Schedule(ctx, j.Spec, j.Machine) })
			if err == nil {
				c.M = sched.Metrics{Technique: "modulo", Loop: j.Spec.Name, CyclesPerIter: float64(res.II),
					Speedup: res.Speedup, Converged: true, KernelRows: res.II, KernelIterSpan: 1, Rows: res.Makespan}
				raw = res
			}
		case "list":
			var res *listsched.Result
			r.call("listsched.Schedule", "", func() { res = listsched.Schedule(j.Spec, j.Machine) })
			c.M = sched.Metrics{Technique: "list", Loop: j.Spec.Name, CyclesPerIter: float64(res.Cycles),
				Speedup: res.Speedup, Converged: true, KernelRows: res.Cycles, KernelIterSpan: 1, Rows: res.Cycles}
			raw = res
		}
	})
	if err != nil {
		c.Err = err.Error()
	}
	return c, raw, d, err
}

// pipelineMetrics normalizes a pipelining result as the registry does.
func pipelineMetrics(technique string, res *pipeline.Result) sched.Metrics {
	m := sched.Metrics{
		Technique:     technique,
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
	return m
}

// perfectPipeline replays pipeline.PerfectPipeline: the unwind ladder,
// one rung after another until the pattern converges.
func (r *replica) perfectPipeline(ctx context.Context, spec *ir.LoopSpec, cfg pipeline.Config) (*pipeline.Result, error) {
	factors := []int{cfg.Unwind}
	if cfg.Unwind == 0 {
		top := cfg.MaxUnwind
		if top <= 0 {
			top = pipeline.DefaultMaxUnwind
		}
		factors = nil
		for u := 12; u <= top; u *= 2 {
			factors = append(factors, u)
		}
	}
	var last *pipeline.Result
	for _, u := range factors {
		res, err := r.rung(ctx, spec, cfg, u)
		if err != nil {
			return nil, err
		}
		last = res
		if res.Converged {
			break
		}
	}
	return last, nil
}

// rung replays one rung of the ladder: unwind, optimize, build the graph
// and the DDG, schedule, detect the pattern.
func (r *replica) rung(ctx context.Context, spec *ir.LoopSpec, cfg pipeline.Config, u int) (*pipeline.Result, error) {
	name := fmt.Sprintf("pipeline.rung%d", u)
	metric := name + "_ms"
	if !perLayerNames[metric] {
		metric = ""
	}
	var res *pipeline.Result
	var err error
	r.call(name, metric, func() { res, err = r.rungCalls(ctx, spec, cfg, u) })
	return res, err
}

func (r *replica) rungCalls(ctx context.Context, spec *ir.LoopSpec, cfg pipeline.Config, u int) (*pipeline.Result, error) {
	var uw *pipeline.Unwound
	var err error
	r.call("pipeline.Unwind", "pipeline.unwind_ms", func() { uw, err = pipeline.Unwind(spec, u) })
	if err != nil {
		return nil, err
	}
	if cfg.Optimize {
		r.call("pipeline.Optimize", "pipeline.optimize_ms", uw.Optimize)
	}
	var g *graph.Graph
	r.call("pipeline.BuildGraph", "graph.build_ms", func() { g = uw.BuildGraph() })
	var ddg *deps.DDG
	r.call("deps.Build", "deps.build_ms", func() { ddg = deps.Build(uw.Ops) })
	var pri *deps.Priority
	r.call("deps.NewPriority", "deps.priority_ms", func() { pri = deps.NewPriority(ddg) })
	var pctx *ps.Ctx
	r.call("ps.NewCtx", "", func() {
		pctx = ps.NewCtx(g, cfg.Machine, uw.ExitLive)
		pctx.D = ddg
	})
	stats, err := r.schedule(ctx, pctx, uw.Ops, pri, cfg)
	if err != nil {
		return nil, err
	}
	res := &pipeline.Result{Spec: spec, U: u, Stats: stats, Unwound: uw}
	r.call("pipeline.DetectPattern", "pipeline.pattern_ms", func() { measure(res, g, cfg.Periods) })
	r.add("pipeline.rungs", 1)
	r.add("pipeline.rows", float64(res.Rows))
	r.add("pipeline.removed_ops", float64(uw.Removed()))
	r.add("deps.ops", float64(len(uw.Ops)))
	return res, nil
}

// measure rates a scheduled rung as the ladder does: by its kernel when
// the pattern converged, else by the mid-schedule rate, else by the
// whole schedule's rows per iteration.
func measure(res *pipeline.Result, g *graph.Graph, periods int) {
	if periods == 0 {
		periods = pipeline.DefaultPeriods
	}
	u := res.U
	res.Rows = len(g.MainChain())
	if k, ok := pipeline.DetectPattern(g, periods); ok {
		res.Converged, res.Kernel, res.CyclesPerIter = true, k, k.CyclesPerIter()
	} else if rate, ok := pipeline.MeasuredRate(g, u/4, 3*u/4); ok {
		res.CyclesPerIter = rate
	} else {
		res.CyclesPerIter = float64(res.Rows) / float64(u)
	}
	if res.CyclesPerIter > 0 {
		res.Speedup = float64(res.Spec.SeqOpsPerIter()) / res.CyclesPerIter
	}
}

// schedule runs core.Schedule in a span, reading the heap counters
// around it, and books its work to the machine's width.
func (r *replica) schedule(ctx context.Context, pctx *ps.Ctx, ops []*ir.Op, pri *deps.Priority, cfg pipeline.Config) (core.Stats, error) {
	opts := core.Options{
		GapPrevention: cfg.GapPrevention,
		EmptyPrelude:  cfg.EmptyPrelude,
		Renaming:      cfg.Renaming,
		TraceNode:     cfg.TraceNode,
		CrossCheck:    cfg.CrossCheck,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var stats core.Stats
	var err error
	d := r.call("core.Schedule", "", func() { stats, err = core.Schedule(ctx, pctx, ops, pri, opts) })
	runtime.ReadMemStats(&after)
	r.coreAlloc += after.TotalAlloc - before.TotalAlloc
	if cfg.Machine.InfiniteOps() {
		r.infT += d
		addStats(&r.inf, stats)
	} else {
		r.finT += d
		addStats(&r.fin, stats)
	}
	return stats, err
}

func addStats(sum *core.Stats, s core.Stats) {
	sum.NodesScheduled += s.NodesScheduled
	sum.Moves += s.Moves
	sum.ArrivedAtTarget += s.ArrivedAtTarget
	sum.PartialMoves += s.PartialMoves
	sum.ResourceBarriers += s.ResourceBarriers
	sum.Suspensions += s.Suspensions
	sum.GaplessRejects += s.GaplessRejects
}

// post replays the registered POST backend: phase 1, the ladder at
// infinite width, once per loop, then a clone of it through post.From
// for each machine.
func (r *replica) post(ctx context.Context, spec *ir.LoopSpec, cfg pipeline.Config) (*pipeline.Result, error) {
	p1cfg := post.Phase1Config(cfg)
	key := spec.Fingerprint() + "|" + p1cfg.Fingerprint()
	phase1, ok := r.phase1[key]
	var err error
	if !ok {
		r.call("post.phase1", "post.phase1_ms", func() { phase1, err = r.perfectPipeline(ctx, spec, p1cfg) })
		if err != nil {
			return nil, err
		}
		r.phase1[key] = phase1
	}
	var clone *pipeline.Result
	r.call("pipeline.Result.Clone", "graph.clone_ms", func() { clone = phase1.Clone() })
	var res *pipeline.Result
	r.call("post.From", "post.from_ms", func() { res, err = post.From(ctx, clone, cfg) })
	return res, err
}

// validate proves a scheduled pipeline result equivalent to its source
// loop on the given workload, for the fuzz oracle's trip counts: one
// iteration, a third of the unwind factor, and all of it.
func (r *replica) validate(res *pipeline.Result, vars map[string]int64, arrays map[string][]int64) error {
	u := int64(res.U)
	var trips []int64
	for _, iters := range []int64{1, u / 3, u} {
		if trip := res.Spec.Start + res.Spec.Step*max(iters, 1); !slices.Contains(trips, trip) {
			trips = append(trips, trip)
		}
	}
	var err error
	r.call("pipeline.ValidateSemantics", "sim.validate_ms", func() {
		err = pipeline.ValidateSemantics(res, vars, arrays, trips)
	})
	return err
}

// layer returns the per-layer metrics the replay measured.
func (r *replica) layer() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for k, x := range r.sum {
		v[k] = x
	}
	perMove := func(d time.Duration, moves int) float64 {
		if moves == 0 {
			return 0
		}
		return float64(d) / float64(moves)
	}
	v["core.schedule_ms"] = ms(r.finT)
	v["core.schedule_inf_ms"] = ms(r.infT)
	v["core.ns_per_move"] = perMove(r.finT, r.fin.Moves)
	v["core.ns_per_move_inf"] = perMove(r.infT, r.inf.Moves)
	v["core.moves"] = float64(r.fin.Moves)
	v["core.nodes"] = float64(r.fin.NodesScheduled)
	v["core.arrived"] = float64(r.fin.ArrivedAtTarget)
	v["core.partial_moves"] = float64(r.fin.PartialMoves)
	v["core.barriers"] = float64(r.fin.ResourceBarriers)
	v["core.suspensions"] = float64(r.fin.Suspensions)
	v["core.gapless_rejects"] = float64(r.fin.GaplessRejects)
	if tries := r.fin.Moves + r.fin.GaplessRejects; tries > 0 {
		v["core.gapless_reject_ratio"] = float64(r.fin.GaplessRejects) / float64(tries)
	}
	v["core.alloc_mb"] = float64(r.coreAlloc) / 1e6
	return v
}

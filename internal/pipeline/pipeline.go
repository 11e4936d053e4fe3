package pipeline

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/ps"
	"repro/internal/sim"
)

// Config controls a pipelining run.
type Config struct {
	Machine machine.Machine
	// Unwind fixes the unwind factor; 0 means automatic (try a ladder
	// of factors until the pattern converges).
	Unwind int
	// MaxUnwind caps automatic unwinding.
	MaxUnwind int
	// Optimize enables redundant-operation removal.
	Optimize bool
	// GapPrevention enables the section 3.3 machinery (required for
	// convergence; switch off to reproduce the Figure 9 gaps).
	GapPrevention bool
	// EmptyPrelude, Renaming: passed through to the GRiP scheduler.
	EmptyPrelude int
	Renaming     bool
	// Periods is the pattern-verification length (default 3).
	Periods int
	// TraceNode is passed to the scheduler for Figure 11-style traces.
	TraceNode func(n *graph.Node, moveable []*ir.Op)
	// CrossCheck runs every fast path next to its retained reference
	// and panics on the first divergence: core's candidate structure
	// against the ranked pick scan, and the ps summary fast paths (the
	// committed-path check and the move-past-read scan) in core's moves
	// and in POST's break and refill moves. Testing only; like
	// TraceNode it cannot change the schedule and is excluded from
	// Knobs.
	CrossCheck bool
}

// Defaults applied when the corresponding Config field is zero.
const (
	// DefaultMaxUnwind caps the automatic unwind ladder.
	DefaultMaxUnwind = 96
	// DefaultPeriods is the pattern-verification length.
	DefaultPeriods = 3
)

// DefaultConfig returns the paper-faithful configuration for machine m.
func DefaultConfig(m machine.Machine) Config {
	return Config{
		Machine:       m,
		MaxUnwind:     DefaultMaxUnwind,
		Optimize:      true,
		GapPrevention: true,
		Periods:       DefaultPeriods,
	}
}

// Knobs returns a canonical encoding of the machine-independent
// scheduling knobs, normalized so a zero-valued defaulted field
// (MaxUnwind, Periods) encodes identically to its explicit default.
// TraceNode is diagnostic output and deliberately excluded: it cannot
// change the schedule.
func (c Config) Knobs() string {
	max := c.MaxUnwind
	if max <= 0 {
		max = DefaultMaxUnwind
	}
	per := c.Periods
	if per <= 0 {
		per = DefaultPeriods
	}
	return fmt.Sprintf("cfg|u=%d|max=%d|opt=%t|gap=%t|pre=%d|ren=%t|per=%d",
		c.Unwind, max, c.Optimize, c.GapPrevention, c.EmptyPrelude, c.Renaming, per)
}

// Fingerprint returns a canonical key of everything that determines a
// pipelining run's output — the machine model and the scheduling knobs
// — in the same spirit as ir.LoopSpec.Fingerprint. Joined with a loop
// fingerprint it uniquely identifies a (loop, machine, configuration)
// experiment, the unit result caches key on.
func (c Config) Fingerprint() string {
	return c.Machine.Fingerprint() + "|" + c.Knobs()
}

// Result reports a pipelining run.
type Result struct {
	Spec      *ir.LoopSpec
	U         int
	Converged bool
	Kernel    *Kernel
	// CyclesPerIter is the steady-state cost of one source iteration
	// (from the kernel when converged, otherwise measured mid-schedule).
	CyclesPerIter float64
	// Speedup is sequential cycles per iteration (original operation
	// count) divided by CyclesPerIter — the paper's Table 1 metric.
	Speedup float64
	// Rows is the length of the scheduled main chain.
	Rows    int
	Stats   core.Stats
	Unwound *Unwound
}

// PerfectPipeline unwinds, schedules with GRiP, and detects the
// steady-state kernel, increasing the unwind factor until the pattern
// converges (or MaxUnwind is reached, in which case the best-effort
// result has Converged false — which is itself meaningful: without gap
// prevention many loops never converge, the paper's Figure 9).
//
// ctx cancels the run: the convergence ladder checks it between unwind
// factors and the GRiP step loop checks it between migrations, so a
// cancelled or timed-out context stops the computation promptly and
// returns its error.
func PerfectPipeline(ctx context.Context, spec *ir.LoopSpec, cfg Config) (*Result, error) {
	factors := []int{cfg.Unwind}
	if cfg.Unwind == 0 {
		max := cfg.MaxUnwind
		if max <= 0 {
			max = DefaultMaxUnwind
		}
		factors = nil
		for u := 12; u <= max; u *= 2 {
			factors = append(factors, u)
		}
	}
	var last *Result
	for _, u := range factors {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := pipelineOnce(ctx, spec, cfg, u)
		if err != nil {
			return nil, err
		}
		last = res
		if res.Converged {
			return res, nil
		}
	}
	return last, nil
}

func pipelineOnce(ctx context.Context, spec *ir.LoopSpec, cfg Config, u int) (*Result, error) {
	uw, err := Unwind(spec, u)
	if err != nil {
		return nil, err
	}
	if cfg.Optimize {
		uw.Optimize()
	}
	g := uw.BuildGraph()
	pctx := ps.NewCtx(g, cfg.Machine, uw.ExitLive)
	stats, err := core.Schedule(ctx, pctx, uw.Ops, deps.NewPriority(deps.Build(uw.Ops)), core.Options{
		GapPrevention: cfg.GapPrevention,
		EmptyPrelude:  cfg.EmptyPrelude,
		Renaming:      cfg.Renaming,
		TraceNode:     cfg.TraceNode,
		CrossCheck:    cfg.CrossCheck,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec, U: u, Stats: stats, Unwound: uw}
	res.Measure(g, cfg.Periods)
	return res, nil
}

// Measure rates the scheduled graph g as r's schedule: Rows is its main
// chain length, CyclesPerIter comes from the kernel when the pattern
// converges over periods (0 means DefaultPeriods), else from the
// mid-schedule rate over iterations U/4..3U/4, else from rows per
// iteration, and Speedup follows from it. r.Spec and r.U must be set.
func (r *Result) Measure(g *graph.Graph, periods int) {
	if periods == 0 {
		periods = DefaultPeriods
	}
	r.Rows = len(g.MainChain())
	if k, ok := DetectPattern(g, periods); ok {
		r.Converged = true
		r.Kernel = k
		r.CyclesPerIter = k.CyclesPerIter()
	} else if rate, ok := MeasuredRate(g, r.U/4, 3*r.U/4); ok {
		r.CyclesPerIter = rate
	} else {
		r.CyclesPerIter = float64(r.Rows) / float64(r.U)
	}
	if r.CyclesPerIter > 0 {
		r.Speedup = float64(r.Spec.SeqOpsPerIter()) / r.CyclesPerIter
	}
}

// SimplePipeline implements the paper's "simple software pipelining"
// comparison (Figure 6): unwind n iterations, compact the block with
// GRiP as straight-line code, and retain the back edge. The speedup is
// over the whole n-iteration block, with no steady-state reformation.
func SimplePipeline(ctx context.Context, spec *ir.LoopSpec, cfg Config, n int) (*Result, error) {
	uw, err := Unwind(spec, n)
	if err != nil {
		return nil, err
	}
	if cfg.Optimize {
		uw.Optimize()
	}
	g := uw.BuildGraph()
	pctx := ps.NewCtx(g, cfg.Machine, uw.ExitLive)
	stats, err := core.Schedule(ctx, pctx, uw.Ops, deps.NewPriority(deps.Build(uw.Ops)), core.Options{
		Renaming:   cfg.Renaming,
		CrossCheck: cfg.CrossCheck,
	})
	if err != nil {
		return nil, err
	}
	rows := len(g.MainChain())
	res := &Result{
		Spec: spec, U: n, Stats: stats, Unwound: uw, Rows: rows,
		CyclesPerIter: float64(rows) / float64(n),
	}
	res.Speedup = float64(spec.SeqOpsPerIter()) / res.CyclesPerIter
	return res, nil
}

// InitState builds an initial machine state: live-in scalars from vars
// (the trip variable included), arrays by name, and the loop counter at
// its start value. Two Unwound instances built from the same spec and
// factor number their registers identically, so a state built on one is
// valid for the other.
func (u *Unwound) InitState(vars map[string]int64, arrays map[string][]int64) *sim.State {
	s := sim.NewState()
	for v, r := range u.LiveIn {
		s.SetReg(r, vars[v])
	}
	s.SetReg(u.LiveIn[ir.CounterVar], u.Spec.Start)
	// Allocate array IDs in sorted name order: arrays the loop itself
	// never references would otherwise get IDs in map iteration order,
	// making states from two Unwound instances incomparable.
	names := make([]string, 0, len(arrays))
	for name := range arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.SetArray(u.Alloc.Array(name), arrays[name])
	}
	return s
}

// ValidateSemantics proves a scheduled pipeline graph equivalent to the
// original loop: a fresh, unoptimized, unscheduled unwinding is executed
// against the same inputs for every given trip count (trips below the
// unwind factor exercise the drain code that move-cj splitting
// produced), and memory plus live-out registers must match.
func ValidateSemantics(res *Result, vars map[string]int64, arrays map[string][]int64, trips []int64) error {
	ref, err := Unwind(res.Spec, res.U)
	if err != nil {
		return err
	}
	refG := ref.BuildGraph()
	maxCycles := 100 * (ref.SeqCycles(res.U) + 100)
	for _, trip := range trips {
		v := map[string]int64{}
		for k, val := range vars {
			v[k] = val
		}
		v[res.Spec.TripVar] = trip

		refRes, err := sim.Run(refG, ref.InitState(v, arrays), maxCycles)
		if err != nil {
			return fmt.Errorf("trip %d: reference: %w", trip, err)
		}
		gotRes, err := sim.Run(res.Unwound.G, res.Unwound.InitState(v, arrays), maxCycles)
		if err != nil {
			return fmt.Errorf("trip %d: scheduled: %w", trip, err)
		}
		var outRegs []ir.Reg
		for _, r := range ref.LiveOut {
			outRegs = append(outRegs, r)
		}
		if err := sim.Equivalent(refRes.State, gotRes.State, outRegs); err != nil {
			return fmt.Errorf("trip %d: %w", trip, err)
		}
	}
	return nil
}

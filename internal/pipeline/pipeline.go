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
	opts := core.Options{
		GapPrevention: cfg.GapPrevention,
		EmptyPrelude:  cfg.EmptyPrelude,
		Renaming:      cfg.Renaming,
		TraceNode:     cfg.TraceNode,
		CrossCheck:    cfg.CrossCheck,
	}
	var last *Result
	for _, u := range factors {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := scheduleUnwound(ctx, spec, cfg, u, opts)
		if err != nil {
			return nil, err
		}
		res.Measure(res.Unwound.G, cfg.Periods)
		last = res
		if res.Converged {
			return res, nil
		}
	}
	return last, nil
}

// scheduleUnwound is the scheduling step every pipelining run takes:
// unwind spec u times, optimize when cfg asks, build the program graph
// and schedule it with GRiP under opts. The result's Unwound.G is the
// scheduled graph; the caller rates it.
func scheduleUnwound(ctx context.Context, spec *ir.LoopSpec, cfg Config, u int, opts core.Options) (*Result, error) {
	uw, err := Unwind(spec, u)
	if err != nil {
		return nil, err
	}
	if cfg.Optimize {
		uw.Optimize()
	}
	g := uw.BuildGraph()
	pctx := ps.NewCtx(g, cfg.Machine, uw.ExitLive)
	stats, err := core.Schedule(ctx, pctx, uw.Ops, deps.NewPriority(deps.Build(uw.Ops)), opts)
	if err != nil {
		return nil, err
	}
	return &Result{Spec: spec, U: u, Stats: stats, Unwound: uw}, nil
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
	res, err := scheduleUnwound(ctx, spec, cfg, n, core.Options{
		Renaming:   cfg.Renaming,
		CrossCheck: cfg.CrossCheck,
	})
	if err != nil {
		return nil, err
	}
	res.Rows = len(res.Unwound.G.MainChain())
	res.CyclesPerIter = float64(res.Rows) / float64(n)
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
// produced), and memory plus live-out registers must match. It is
// NewReference followed by Check; callers judging several schedules of
// one loop at one unwind factor can share the reference.
func ValidateSemantics(res *Result, vars map[string]int64, arrays map[string][]int64, trips []int64) error {
	ref, err := NewReference(res.Spec, res.U, vars, arrays, trips)
	if err != nil {
		return err
	}
	return ref.Check(res)
}

// Reference is the oracle side of ValidateSemantics: a fresh,
// unoptimized, unscheduled unwinding of a loop, simulated once per trip
// count on one workload. It is read-only once built, so schedules may
// be checked against it from several goroutines at once.
type Reference struct {
	u         int
	maxCycles int
	outRegs   []ir.Reg
	// runs holds the reference's run per trip, in trip order; a run
	// that failed ends the list, its error kept for Check.
	runs []refRun
}

// refRun is the reference run at one trip: the initial state it started
// from (the workload, with the trip variable set to the trip), which
// every scheduled run at that trip starts from too, and its final state
// or error.
type refRun struct {
	trip  int64
	init  *sim.State
	state *sim.State
	err   error
}

// NewReference unwinds spec u times and simulates that unwinding once
// per trip on the workload: vars, with the trip variable set to the
// trip, and arrays. The workload maps are read, never written, here and
// in Check. The error is the unwinding's; a failed reference run is
// reported by Check, after the trips before it have been checked.
func NewReference(spec *ir.LoopSpec, u int, vars map[string]int64, arrays map[string][]int64, trips []int64) (*Reference, error) {
	return newReference(spec, u, vars, arrays, trips, 100*(u*spec.SeqOpsPerIter()+100))
}

// newReference is NewReference under an explicit simulator cycle
// budget, which bounds the reference runs and, in Check, the scheduled
// ones.
func newReference(spec *ir.LoopSpec, u int, vars map[string]int64, arrays map[string][]int64, trips []int64, maxCycles int) (*Reference, error) {
	uw, err := Unwind(spec, u)
	if err != nil {
		return nil, err
	}
	g := uw.BuildGraph()
	r := &Reference{u: u, maxCycles: maxCycles}
	for _, reg := range uw.LiveOut {
		r.outRegs = append(r.outRegs, reg)
	}
	runVars := make(map[string]int64, len(vars)+1)
	for k, val := range vars {
		runVars[k] = val
	}
	for _, trip := range trips {
		runVars[spec.TripVar] = trip
		run := refRun{trip: trip, init: uw.InitState(runVars, arrays)}
		out, err := sim.Run(g, run.init, maxCycles)
		if err != nil {
			run.err = err
		} else {
			run.state = out.State
		}
		r.runs = append(r.runs, run)
		if err != nil {
			break
		}
	}
	return r, nil
}

// Check simulates res's scheduled graph at every trip of the reference,
// in order, and returns the first trip's error: the reference's own
// failure, the scheduled run's, or a difference in memory or live-out
// registers. res must schedule the reference's loop, and at its unwind
// factor: a reference of a smaller factor would pass a correct schedule
// too, but would never run the trips past its own depth. Each scheduled
// run starts from the reference run's initial state at its trip, which
// InitState's numbering guarantee makes valid for res; sim.Run only
// reads it. Check writes nothing.
func (r *Reference) Check(res *Result) error {
	if res.U != r.u {
		return fmt.Errorf("pipeline: schedule unwound %d times checked against a reference unwound %d times", res.U, r.u)
	}
	for _, run := range r.runs {
		if run.err != nil {
			return fmt.Errorf("trip %d: reference: %w", run.trip, run.err)
		}
		got, err := sim.Run(res.Unwound.G, run.init, r.maxCycles)
		if err != nil {
			return fmt.Errorf("trip %d: scheduled: %w", run.trip, err)
		}
		if err := sim.Equivalent(run.state, got.State, r.outRegs); err != nil {
			return fmt.Errorf("trip %d: %w", run.trip, err)
		}
	}
	return nil
}

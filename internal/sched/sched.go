// Package sched defines the uniform backend interface every scheduling
// technique in this repository implements, a process-wide registry the
// facade and commands drive, and the normalized result all techniques
// report. Adding a technique is one Register call; everything above —
// the batch engine, Table 1, the CLI flags — picks it up by name.
//
// Layering (bottom-up): core/ps/graph implement the transformations,
// the technique packages (pipeline, post, modulo, listsched) implement
// whole techniques, this package adapts them behind one interface, and
// sched/batch executes jobs against the registry concurrently.
package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// Config is a per-request override of a technique's paper-default
// configuration. The zero value IS the paper default, so boolean knobs
// are negated (NoOptimize, NoGapPrevention) and zero-valued integer
// knobs mean "use the default". It is a plain value type: requests and
// batch jobs embed it by value and its fingerprint joins cache keys.
//
// The knobs parameterize the pipelining techniques (grip, post); the
// single-iteration baselines (modulo, list) have no configuration and
// ignore them, at the acceptable cost of one cache entry per distinct
// config.
type Config struct {
	// Unwind fixes the unwind factor; 0 means automatic (the ladder of
	// factors until the pattern converges).
	Unwind int
	// MaxUnwind caps automatic unwinding; 0 means the default (96).
	MaxUnwind int
	// NoOptimize disables redundant-operation removal.
	NoOptimize bool
	// NoGapPrevention disables the section 3.3 machinery (reproducing
	// the Figure 9 divergence).
	NoGapPrevention bool
	// EmptyPrelude inserts this many empty instructions before entry.
	EmptyPrelude int
	// Renaming enables the renaming variant of move-op.
	Renaming bool
	// Periods is the pattern-verification length; 0 means the default (3).
	Periods int
	// CrossCheck makes the pipelining backends run their retained
	// reference implementations alongside every incremental fast path
	// and panic on divergence (see pipeline.Config.CrossCheck). Like
	// there, it cannot change the schedule, so it is excluded from
	// Fingerprint. No cache may answer a checked request instead of
	// running it: the batch engine computes CrossCheck jobs without its
	// cache, and POST's phase-1 memo keys on the flag.
	CrossCheck bool
}

// Pipeline expands the override into a full pipeline.Config for machine
// m, starting from the paper defaults.
func (c Config) Pipeline(m machine.Machine) pipeline.Config {
	cfg := pipeline.DefaultConfig(m)
	cfg.Unwind = c.Unwind
	if c.MaxUnwind > 0 {
		cfg.MaxUnwind = c.MaxUnwind
	}
	cfg.Optimize = !c.NoOptimize
	cfg.GapPrevention = !c.NoGapPrevention
	cfg.EmptyPrelude = c.EmptyPrelude
	cfg.Renaming = c.Renaming
	if c.Periods > 0 {
		cfg.Periods = c.Periods
	}
	cfg.CrossCheck = c.CrossCheck
	return cfg
}

// Validate rejects negative integer knobs. Each counts something
// (iterations, instructions, periods), so a negative value has no
// meaning; left in, it would run the default under a distinct
// fingerprint or fail every pipelined cell only at run time. Commands
// call it on parsed flags and report a usage error.
func (c Config) Validate() error {
	for _, k := range [...]struct {
		name string
		v    int
	}{{"unwind", c.Unwind}, {"maxunwind", c.MaxUnwind}, {"prelude", c.EmptyPrelude}, {"periods", c.Periods}} {
		if k.v < 0 {
			return fmt.Errorf("config %s=%d: must not be negative", k.name, k.v)
		}
	}
	return nil
}

// Fingerprint returns the canonical machine-independent key of the
// configuration (the machine fingerprints separately in Request
// fingerprints). Defaulted zero values normalize, so the zero Config
// and an explicitly defaulted one key identically and share cache
// entries.
func (c Config) Fingerprint() string {
	return c.Pipeline(machine.Machine{}).Knobs()
}

// Want hints what a request needs beyond the normalized metrics. It
// is retention advice, not experiment identity: the scheduled result
// is a pure function of (spec, machine, config) alone, so Want never
// joins fingerprints or cache keys.
type Want uint8

const (
	// WantMetrics (the zero value, the default) asks for the normalized
	// metrics only; backends may skip retaining their raw graphs
	// entirely, so nothing heavyweight outlives the computation.
	WantMetrics Want = iota
	// WantRaw additionally asks for the technique's native result as
	// the raw attachment — validation and figure paths need it.
	WantRaw
)

// Request is one first-class scheduling request: the (workload,
// machine, configuration) triple that identifies an experiment. Specs
// are treated as read-only and may be shared across requests.
type Request struct {
	Spec    *ir.LoopSpec
	Machine machine.Machine
	// Config overrides the technique's paper-default configuration;
	// the zero value is the paper default.
	Config Config
	// Want hints whether the caller needs the raw attachment; it does
	// not affect the metrics and is excluded from Fingerprint.
	Want Want
}

// Fingerprint returns the canonical cache key of the request: loop,
// machine, and configuration. Two requests with equal fingerprints
// produce bit-identical results under any registered technique. Want
// is deliberately excluded — it changes what is retained, never what
// is computed.
func (r Request) Fingerprint() string {
	return r.Spec.Fingerprint() + "|" + r.Machine.Fingerprint() + "|" + r.Config.Fingerprint()
}

// Metrics is the normalized, serializable outcome every backend
// reports: the numbers Table 1 and the CLI compare across techniques.
// It is a plain comparable value — no pointers, no graphs — so caches
// copy it freely.
type Metrics struct {
	// Technique is the registry name of the backend that produced the
	// result.
	Technique string `json:"technique"`
	// Loop is the scheduled loop's name.
	Loop string `json:"loop"`
	// CyclesPerIter is the steady-state cost of one source iteration.
	CyclesPerIter float64 `json:"cycles_per_iter"`
	// Speedup is sequential ops per iteration divided by CyclesPerIter —
	// the paper's Table 1 metric.
	Speedup float64 `json:"speedup"`
	// Converged reports whether the technique reached its steady state
	// (pattern convergence for the pipelining techniques; trivially true
	// for single-iteration schedulers).
	Converged bool `json:"converged"`
	// KernelRows and KernelIterSpan describe the steady-state kernel:
	// its row count and how many source iterations one period spans.
	// Zero when no kernel formed.
	KernelRows     int `json:"kernel_rows,omitempty"`
	KernelIterSpan int `json:"kernel_iter_span,omitempty"`
	// Rows is the full schedule length in instructions.
	Rows int `json:"rows,omitempty"`
	// Barriers counts resource-barrier events during scheduling (GRiP's
	// integrated-constraint cost metric; zero for other techniques).
	Barriers int `json:"barriers,omitempty"`
}

// Result is a backend's answer to one request: the normalized metrics,
// plus an optional raw attachment — the technique's native result
// (*pipeline.Result, *modulo.Result, *listsched.Result) — for the few
// consumers (validation, figure rendering) that need more than the
// normalized view. Backends attach the raw result only when the
// request asked for it (Request.Want), so metrics-only runs never
// retain megabyte scheduled graphs.
type Result struct {
	Metrics
	raw any
}

// NewResult assembles a result from metrics and an optional raw
// attachment. A nil raw means the result carries metrics only.
func NewResult(m Metrics, raw any) *Result {
	return &Result{Metrics: m, raw: raw}
}

// Raw returns the technique's native result, or nil when the request
// did not ask for one (WantMetrics). No cache holds raw results, so
// the attachment belongs to the caller that requested it, which may
// mutate it (simulation setup allocates array IDs on a pipeline
// result's allocator).
func (r *Result) Raw() any { return r.raw }

// Scheduler is one scheduling technique: it maps a request (loop,
// machine, configuration) to a normalized result. Implementations must
// be safe for concurrent use — the batch engine calls Schedule from
// many goroutines — and must observe ctx in their step loops: a
// cancelled or expired context stops the computation and returns its
// error (wrapped so errors.Is recognizes it). That cooperation is what
// makes per-job timeouts terminate work instead of leaking goroutines.
type Scheduler interface {
	// Name returns the registry name ("grip", "post", ...).
	Name() string
	// Schedule runs the technique for the request under ctx.
	Schedule(ctx context.Context, req Request) (*Result, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Scheduler{}
)

// Register adds a backend under its name. It panics on a duplicate
// name: backends are registered from init functions, and a collision is
// a programming error.
func Register(s Scheduler) {
	regMu.Lock()
	defer regMu.Unlock()
	name := s.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sched: duplicate scheduler %q", name))
	}
	registry[name] = s
}

// Lookup returns the backend registered under name.
func Lookup(name string) (Scheduler, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Schedule runs the named backend for the request, returning an error
// for unknown names.
func Schedule(ctx context.Context, name string, req Request) (*Result, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (have %v)", name, Names())
	}
	return s.Schedule(ctx, req)
}

// Differential fuzzing: drive generated loops through every registered
// backend via the batch engine and judge each result against the
// strongest oracle available for its technique.
//
// The pipelining techniques (grip, post) expose executable scheduled
// graphs, so they get the full semantic oracle: the scheduled program
// runs in internal/sim against a fresh, unoptimized, unscheduled
// unwinding of the same loop on the same deterministic workload, for
// full and early-exit trip counts (pipeline.NewReference and
// Reference.Check, the two halves of the ValidateSemantics machinery
// behind the CLI's -validate). The single-iteration
// baselines (modulo, list) report metrics only, so they get analytic
// oracles instead: their cycles-per-iteration must respect the
// dependence-theoretic rate bound (max of the recurrence and resource
// MII) from below and the sequential iteration cost from above —
// neither removes or adds operations, so landing outside that band is
// a scheduler bug by construction. Every job additionally runs under
// sched.Config.CrossCheck, so the incremental scheduler fast paths are
// re-verified against their retained reference implementations on every
// generated loop.
//
// Failures are classified (panic, timeout, scheduler error, semantic
// mismatch, livelock, metric violation), shrunk by the greedy minimizer
// in internal/fuzzgen with this same oracle as the keep-predicate, and
// serialized through internal/textir into the regression corpus.
package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/deps"
	"repro/internal/fuzzgen"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/sched/batch"
	"repro/internal/sim"
	"repro/internal/textir"
)

// FailureClass partitions fuzz failures for triage and for minimization
// (the minimizer reproduces the class, not the exact error text).
type FailureClass string

const (
	// FailPanic: the backend panicked (recovered into *sched.PanicError).
	// A CrossCheck divergence between a fast path and its reference
	// panics, so it lands here.
	FailPanic FailureClass = "panic"
	// FailTimeout: the job exceeded its per-job wall budget.
	FailTimeout FailureClass = "timeout"
	// FailError: the backend returned an error.
	FailError FailureClass = "error"
	// FailMismatch: the scheduled program computed different observable
	// state than the original loop.
	FailMismatch FailureClass = "mismatch"
	// FailLivelock: the scheduled (or reference) program exhausted the
	// simulator's cycle budget — a runaway schedule.
	FailLivelock FailureClass = "livelock"
	// FailMetrics: a reported metric violated an analytic invariant
	// (non-positive rate, rate bound, modulo slower than list).
	FailMetrics FailureClass = "metrics"
)

// FuzzFailure is one failed check: which technique, on which machine,
// failing how.
type FuzzFailure struct {
	Technique string
	FUs       int
	Class     FailureClass
	Err       error
}

func (f FuzzFailure) String() string {
	return fmt.Sprintf("%s@%dFU %s: %v", f.Technique, f.FUs, f.Class, f.Err)
}

// LoopVerdict is the oracle's judgment of one loop across the whole
// technique × machine matrix.
type LoopVerdict struct {
	Spec *ir.LoopSpec
	// Checks is the number of (technique, FU) cells judged.
	Checks   int
	Failures []FuzzFailure
}

// Failed reports whether any check failed.
func (v *LoopVerdict) Failed() bool { return len(v.Failures) > 0 }

// FuzzOptions configure the differential oracle. The zero value means:
// all registered techniques, 2/4/8 FUs, paper-default configuration
// with the unwind ladder capped at FuzzMaxUnwind, and a 30s per-job
// timeout. There is no cache option: every fuzz job carries
// CrossCheck, which the batch engine never serves from a cache.
type FuzzOptions struct {
	// Machines are the FU counts to sweep; nil means 2, 4, 8.
	Machines []int
	// Techniques are the backends to judge; nil means every registered
	// one.
	Techniques []string
	// Config is the scheduling configuration. CrossCheck is forced on,
	// and a zero MaxUnwind becomes FuzzMaxUnwind rather than the paper
	// default (96): adversarial loops that never converge are priced at
	// the cap, and fuzz throughput matters more than squeezing out
	// late convergence.
	Config sched.Config
	// Parallelism and Timeout are passed to the batch engine. Timeout 0
	// means 30s — unlike the engine, the fuzzer never runs unbounded,
	// because a hung scheduler is precisely a finding (FailTimeout).
	Parallelism int
	Timeout     time.Duration
}

// FuzzMaxUnwind is the fuzzer's default cap on the automatic unwind
// ladder (the paper default is 96; see FuzzOptions.Config).
const FuzzMaxUnwind = 24

// DefaultFuzzTimeout bounds each scheduling job in a fuzz run.
const DefaultFuzzTimeout = 30 * time.Second

func (o FuzzOptions) normalized() FuzzOptions {
	if o.Machines == nil {
		o.Machines = []int{2, 4, 8}
	}
	if o.Techniques == nil {
		o.Techniques = sched.Names()
	}
	o.Config.CrossCheck = true
	if o.Config.MaxUnwind == 0 {
		o.Config.MaxUnwind = FuzzMaxUnwind
	}
	if o.Timeout == 0 {
		o.Timeout = DefaultFuzzTimeout
	}
	return o
}

// boundEps absorbs float rounding in rate-bound comparisons.
const boundEps = 1e-9

// CheckLoop runs one loop through the technique × machine matrix and
// judges every cell. The verdict is a pure function of (spec, options):
// same loop, same verdict, regardless of parallelism or cache state.
// The returned error is infrastructural only (context cancelled);
// per-cell failures live in the verdict.
//
// The semantic oracle runs inside the batch pool: each grip/post cell
// is simulated by the worker that scheduled it, as soon as its outcome
// is final, against the reference for its unwind factor at
// oracleTrips. The cells at one factor differ only in their schedules,
// so they share that reference, built by the first cell that needs it
// while the others at its factor wait; the references live only as
// long as the call. The rate bands and the verdict assembly follow the
// batch, in (machine, technique) order whatever the dispatch order (see
// dispatchOrder).
func CheckLoop(ctx context.Context, spec *ir.LoopSpec, opts FuzzOptions) (*LoopVerdict, error) {
	opts = opts.normalized()
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("difffuzz: invalid spec: %w", err)
	}

	var jobs []batch.Job
	for _, fus := range opts.Machines {
		m := machine.New(fus)
		for _, tech := range opts.Techniques {
			jobs = append(jobs, batch.Job{
				Technique: tech, Spec: spec, Machine: m,
				Config: opts.Config, Want: sched.WantRaw,
			})
		}
	}
	order := dispatchOrder(jobs)
	queued := make([]batch.Job, len(jobs))
	for q, i := range order {
		queued[q] = jobs[i]
	}
	vars, arrays := fuzzgen.Workload(spec)
	var refs memo.Table[int, *pipeline.Reference] // by unwind factor
	// The reference build takes no ctx, and its waiters wait it out
	// too, so a verdict never depends on when ctx ends.
	refCtx := context.WithoutCancel(ctx)
	semantic := make([]error, len(jobs))
	queuedOuts, err := batch.Run(ctx, queued, batch.Options{
		Parallelism: opts.Parallelism, Timeout: opts.Timeout,
		AfterJob: func(q int, o batch.Outcome) {
			if o.Err != nil {
				return
			}
			res, ok := o.Result.Raw().(*pipeline.Result)
			if !ok {
				return
			}
			ref, _, err := refs.GetOrCompute(refCtx, res.U, func() (*pipeline.Reference, error) {
				return pipeline.NewReference(spec, res.U, vars, arrays, oracleTrips(spec, res.U))
			})
			if err == nil {
				err = ref.Check(res)
			}
			semantic[order[q]] = err
		},
	})
	if err != nil {
		return nil, err
	}
	outs := make([]batch.Outcome, len(jobs))
	for q, i := range order {
		outs[i] = queuedOuts[q]
	}

	v := &LoopVerdict{Spec: spec, Checks: len(jobs)}
	info := deps.Analyze(spec)
	bounds := map[int]float64{}
	for _, fus := range opts.Machines {
		bounds[fus] = info.RateBound(spec.SeqOpsPerIter()-1, fus)
	}

	fail := func(o batch.Outcome, class FailureClass, err error) {
		v.Failures = append(v.Failures, FuzzFailure{
			Technique: o.Job.Technique, FUs: o.Job.Machine.OpSlots, Class: class, Err: err,
		})
	}
	for i, o := range outs {
		if o.Err != nil {
			fail(o, classify(o.Err), o.Err)
			continue
		}
		if o.Result.CyclesPerIter <= 0 || o.Result.Speedup <= 0 {
			fail(o, FailMetrics, fmt.Errorf("non-positive rate: %.3f cycles/iter, speedup %.3f",
				o.Result.CyclesPerIter, o.Result.Speedup))
			continue
		}
		if _, ok := o.Result.Raw().(*pipeline.Result); ok {
			// Semantic oracle for the pipelining techniques, already
			// run on the worker.
			if err := semantic[i]; err != nil {
				class := FailMismatch
				if errors.Is(err, sim.ErrCycleBudget) {
					class = FailLivelock
				}
				fail(o, class, err)
			}
			continue
		}
		// Analytic oracle for the single-iteration baselines: neither
		// optimizes ops away, so the dependence-theoretic rate bound is a
		// hard floor on its cycles per iteration (NOT a floor for
		// grip/post — redundant-operation removal legitimately beats it),
		// and the sequential iteration cost is a hard ceiling (a schedule
		// can always fall back to one op per cycle). Nothing stronger is
		// sound: greedy modulo placement may legitimately settle above
		// the list schedule's length when cross-iteration constraints
		// defeat it at the minimum II.
		if b := bounds[o.Job.Machine.OpSlots]; o.Result.CyclesPerIter+boundEps < b {
			fail(o, FailMetrics, fmt.Errorf("%.3f cycles/iter below rate bound %.3f",
				o.Result.CyclesPerIter, b))
			continue
		}
		if seq := float64(spec.SeqOpsPerIter()); o.Result.CyclesPerIter > seq+boundEps {
			fail(o, FailMetrics, fmt.Errorf("%.3f cycles/iter exceeds sequential cost %.0f",
				o.Result.CyclesPerIter, seq))
		}
	}
	return v, nil
}

// dispatchOrder returns the order in which CheckLoop queues its jobs,
// given in (machine, technique) order, as indices into jobs: the first
// POST job (the first machine's), then GRiP's jobs, then every other
// technique's, then the remaining POST jobs, each group in job order.
// POST's phase 1 (Perfect Pipelining at infinite resources) does not
// depend on the machine, so its jobs at every width share one
// single-flight computation; queued among the others they would block a
// worker waiting on that flight. The first POST job starts phase 1 at
// once, GRiP's long jobs and the short baselines keep the other workers
// busy meanwhile, and the POST jobs queued last find phase 1 landed.
func dispatchOrder(jobs []batch.Job) []int {
	group := make([]int, len(jobs))
	firstPost := true
	for i, j := range jobs {
		switch {
		case j.Technique == "post" && firstPost:
			group[i], firstPost = 0, false
		case j.Technique == "grip":
			group[i] = 1
		case j.Technique != "post":
			group[i] = 2
		default:
			group[i] = 3
		}
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return group[order[a]] < group[order[b]] })
	return order
}

// classify names the failure class of a job error: a recovered panic,
// a per-job deadline, or any other scheduler error.
func classify(err error) FailureClass {
	var pe *sched.PanicError
	switch {
	case errors.As(err, &pe):
		return FailPanic
	case errors.Is(err, context.DeadlineExceeded):
		return FailTimeout
	}
	return FailError
}

// oracleTrips are the trip counts the semantic oracle simulates a loop
// unwound u times at: an early exit, a mid-unwind exit, and the full
// unwound depth, Start + Step·max(i,1) for i in {1, u/3, u},
// deduplicated. CheckLoop and ValidateCell share them.
func oracleTrips(spec *ir.LoopSpec, u int) []int64 {
	var trips []int64
	seen := map[int64]bool{}
	for _, iters := range []int64{1, int64(u) / 3, int64(u)} {
		if iters < 1 {
			iters = 1
		}
		trip := spec.Start + spec.Step*iters
		if !seen[trip] {
			seen[trip] = true
			trips = append(trips, trip)
		}
	}
	return trips
}

// SweepOptions configure FuzzSweep.
type SweepOptions struct {
	FuzzOptions
	// SeedBase is the first seed; seed i generates fuzzgen.SweepSpec
	// (SeedBase + i). Seeds is how many to run.
	SeedBase int64
	Seeds    int
	// Budget, when positive, stops the sweep (cleanly, after a whole
	// loop) once the wall clock is spent. Per-seed verdicts stay
	// deterministic; the budget only decides how far the sweep gets.
	Budget time.Duration
	// Minimize shrinks every failing loop with up to MinProbes oracle
	// probes (default 200) before reporting it.
	Minimize  bool
	MinProbes int
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// SweepFailure is one failing seed of a sweep: the generated loop, its
// verdict, and (when minimization ran and shrank it) the reduced
// reproducer.
type SweepFailure struct {
	Seed     int64
	Spec     *ir.LoopSpec
	Failures []FuzzFailure
	// Minimized is the shrunk reproducer for Failures[0], nil when
	// minimization was off or achieved nothing. Probes is the oracle
	// probe count minimization spent.
	Minimized *ir.LoopSpec
	Probes    int
}

// FuzzReport summarizes a sweep.
type FuzzReport struct {
	// Seeds is how many seeds were actually judged (the budget may stop
	// the sweep early); Checks aggregates their verdicts.
	Seeds    int
	Checks   int
	Failures []SweepFailure
	Elapsed  time.Duration
}

// FuzzSweep generates Seeds loops from the seeded sweep distribution
// and judges each with CheckLoop, minimizing failures when asked. The
// returned error is infrastructural (context cancelled); findings are
// in the report.
func FuzzSweep(ctx context.Context, opts SweepOptions) (*FuzzReport, error) {
	if opts.MinProbes <= 0 {
		opts.MinProbes = 200
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &FuzzReport{}
	start := time.Now()
	for i := 0; i < opts.Seeds; i++ {
		if opts.Budget > 0 && time.Since(start) >= opts.Budget {
			logf("fuzz: budget %v spent after %d/%d seeds", opts.Budget, i, opts.Seeds)
			break
		}
		seed := opts.SeedBase + int64(i)
		spec := fuzzgen.SweepSpec(seed)
		v, err := CheckLoop(ctx, spec, opts.FuzzOptions)
		if err != nil {
			rep.Elapsed = time.Since(start)
			return rep, err
		}
		rep.Seeds++
		rep.Checks += v.Checks
		if !v.Failed() {
			continue
		}
		f := SweepFailure{Seed: seed, Spec: spec, Failures: v.Failures}
		logf("fuzz: seed %d (%s): %d failure(s), first: %s", seed, spec.Name, len(v.Failures), v.Failures[0])
		if opts.Minimize {
			min, probes := MinimizeFailure(ctx, spec, v.Failures[0], opts.FuzzOptions, opts.MinProbes)
			f.Probes = probes
			if min.Fingerprint() != spec.Fingerprint() {
				f.Minimized = min
				logf("fuzz: seed %d minimized %d -> %d body ops (%d probes)",
					seed, len(spec.Body), len(min.Body), probes)
			}
		}
		rep.Failures = append(rep.Failures, f)
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// MinimizeFailure shrinks spec while it still reproduces the given
// failure's class on the failing technique and machine — re-running the
// full oracle (workload included: each candidate is judged against its
// own fingerprint-derived workload) on every candidate, up to maxProbes
// probes. It returns the smallest reproducer and the probes spent.
func MinimizeFailure(ctx context.Context, spec *ir.LoopSpec, f FuzzFailure, opts FuzzOptions, maxProbes int) (*ir.LoopSpec, int) {
	opts = opts.normalized()
	opts.Machines = []int{f.FUs}
	opts.Techniques = []string{f.Technique}
	keep := func(cand *ir.LoopSpec) bool {
		v, err := CheckLoop(ctx, cand, opts)
		if err != nil {
			return false
		}
		for _, ff := range v.Failures {
			if ff.Class == f.Class {
				return true
			}
		}
		return false
	}
	return fuzzgen.Minimize(spec, keep, maxProbes)
}

// CorpusName returns the failure's canonical corpus entry name:
// seed, failing technique, machine, and class.
func (f *SweepFailure) CorpusName() string {
	first := f.Failures[0]
	return fmt.Sprintf("s%d_%s%dfu_%s", f.Seed, first.Technique, first.FUs, first.Class)
}

// errHeader renders an error's first line as a textir comment.
func errHeader(err error) string {
	line := err.Error()
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	return "# " + line + "\n"
}

// corpusBytes serializes a failure's best reproducer (minimized when
// available) with a triage header. The spec keeps its generated name:
// the workload derives from the fingerprint, so renaming would change
// the inputs the failure was found with.
func (f *SweepFailure) corpusBytes() []byte {
	spec := f.Spec
	if f.Minimized != nil {
		spec = f.Minimized
	}
	var b strings.Builder
	first := f.Failures[0]
	fmt.Fprintf(&b, "# fuzzloop seed %d: %s @ %d FU, %s\n", f.Seed, first.Technique, first.FUs, first.Class)
	b.WriteString(errHeader(first.Err))
	textir.Print(&b, spec)
	return []byte(b.String())
}

// WriteCorpusEntry writes the failure's reproducer into the regression
// corpus directory as <CorpusName>.loop, creating the directory as
// needed, and returns the file path.
func WriteCorpusEntry(dir string, f *SweepFailure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, f.CorpusName()+".loop")
	return path, os.WriteFile(path, f.corpusBytes(), 0o644)
}

// WriteArtifacts writes a failure's full triage bundle for CI upload:
// the pre-minimization loop, the minimized loop (when one exists), and
// every failure's complete error text.
func WriteArtifacts(dir string, f *SweepFailure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := f.CorpusName()
	var pre strings.Builder
	fmt.Fprintf(&pre, "# fuzzloop seed %d, pre-minimization\n", f.Seed)
	textir.Print(&pre, f.Spec)
	if err := os.WriteFile(filepath.Join(dir, name+".pre.loop"), []byte(pre.String()), 0o644); err != nil {
		return err
	}
	if f.Minimized != nil {
		var min strings.Builder
		fmt.Fprintf(&min, "# fuzzloop seed %d, minimized (%d probes)\n", f.Seed, f.Probes)
		textir.Print(&min, f.Minimized)
		if err := os.WriteFile(filepath.Join(dir, name+".min.loop"), []byte(min.String()), 0o644); err != nil {
			return err
		}
	}
	var errs strings.Builder
	for _, ff := range f.Failures {
		fmt.Fprintf(&errs, "%s\n\n", ff)
	}
	return os.WriteFile(filepath.Join(dir, name+".err.txt"), []byte(errs.String()), 0o644)
}

// CorpusResult is one replayed regression-corpus entry.
type CorpusResult struct {
	File    string
	Verdict *LoopVerdict
}

// ReplayCorpus parses every *.loop file under dir (sorted, so replay
// order is stable) and judges each with CheckLoop. Corpus entries are
// regressions that have been fixed, so a green replay means every
// verdict passes; the caller checks the verdicts. The returned error is
// infrastructural: unreadable file, parse failure, cancelled context.
func ReplayCorpus(ctx context.Context, dir string, opts FuzzOptions) ([]CorpusResult, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.loop"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var results []CorpusResult
	for _, path := range paths {
		file, err := os.Open(path)
		if err != nil {
			return results, err
		}
		spec, err := textir.Parse(file)
		file.Close()
		if err != nil {
			return results, fmt.Errorf("%s: %w", path, err)
		}
		v, err := CheckLoop(ctx, spec, opts)
		if err != nil {
			return results, fmt.Errorf("%s: %w", path, err)
		}
		results = append(results, CorpusResult{File: path, Verdict: v})
	}
	return results, nil
}

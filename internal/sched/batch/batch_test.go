package batch_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sched/batch"
	"repro/internal/testutil"
)

func tinyLoop(name string) *ir.LoopSpec {
	return &ir.LoopSpec{
		Name: name,
		Body: []ir.BodyOp{
			ir.BLoad("t", ir.Aff("A", 1, 0)),
			ir.BStore(ir.Aff("B", 1, 0), "t"),
		},
		Step: 1, TripVar: "n",
	}
}

// stubScheduler counts calls and optionally blocks until released; like
// every well-behaved backend it observes its context while blocked.
type stubScheduler struct {
	name      string
	calls     atomic.Int64
	cancelled atomic.Int64  // completions due to ctx, not the gate
	gate      chan struct{} // nil = return immediately
}

func (s *stubScheduler) Name() string { return s.name }

func (s *stubScheduler) Schedule(ctx context.Context, req sched.Request) (*sched.Result, error) {
	s.calls.Add(1)
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			s.cancelled.Add(1)
			return nil, ctx.Err()
		}
	}
	return sched.NewResult(sched.Metrics{Technique: s.name, Loop: req.Spec.Name, Speedup: 1, Converged: true}, nil), nil
}

var registerOnce sync.Once
var countStub = &stubScheduler{name: "test-count"}
var blockStub = &stubScheduler{name: "test-block", gate: make(chan struct{})}

// The single-flight stubs' gates are set by the test that runs them, so
// a repeated test run (go test -count=2) gets a fresh gate.
var flightStub = &stubScheduler{name: "test-flight"}
var slowStub = &stubScheduler{name: "test-slow-leader"}

// stubs registers the stub backends once per test binary: the registry
// refuses a name registered twice.
func stubs() {
	registerOnce.Do(func() {
		sched.Register(countStub)
		sched.Register(blockStub)
		sched.Register(flightStub)
		sched.Register(slowStub)
	})
}

func TestRunOrderAndResults(t *testing.T) {
	var jobs []batch.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, batch.Job{
			Technique: "list", Spec: tinyLoop(fmt.Sprintf("l%d", i)), Machine: machine.New(2),
		})
	}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(jobs) {
		t.Fatalf("got %d outcomes for %d jobs", len(outs), len(jobs))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Job.Spec.Name != fmt.Sprintf("l%d", i) {
			t.Errorf("outcome %d belongs to job %s: order not preserved", i, o.Job.Spec.Name)
		}
		if o.Result == nil || o.Result.Speedup <= 0 {
			t.Errorf("job %d: bad result %+v", i, o.Result)
		}
	}
}

// TestAfterJobRunsOnWorkers: the hook runs exactly once per job, with
// the outcome Run returns for it, and every call has returned when Run
// does. The calls run on the pool's workers: the first one waits until
// a second has started, which a caller running the hooks one by one
// could never see, and no more run at once than there are workers.
func TestAfterJobRunsOnWorkers(t *testing.T) {
	testutil.LeakCheck(t)
	const workers = 2
	var jobs []batch.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, batch.Job{
			Technique: "list", Spec: tinyLoop(fmt.Sprintf("h%d", i)), Machine: machine.New(2),
		})
	}
	seen := make([]batch.Outcome, len(jobs))
	calls := make([]atomic.Int32, len(jobs))
	var started, running, peak atomic.Int32
	overlap := make(chan struct{})
	hook := func(i int, o batch.Outcome) {
		calls[i].Add(1)
		seen[i] = o
		n := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		if started.Add(1) == 2 {
			close(overlap)
		}
		select {
		case <-overlap:
		case <-time.After(5 * time.Second):
			t.Error("no second hook started while the first ran: hooks do not run on the workers")
		}
	}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: workers, AfterJob: hook})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("job %d: hook ran %d times before Run returned, want 1", i, n)
		}
		if seen[i].Job.Spec != jobs[i].Spec || seen[i].Result != o.Result || seen[i].Err != o.Err {
			t.Errorf("job %d: hook saw %+v, Run returned %+v", i, seen[i], o)
		}
	}
	if p := peak.Load(); p < 2 || p > workers {
		t.Errorf("at most %d hooks ran at once, want 2 (the worker count)", p)
	}
}

func TestUnknownTechniqueFailsJobOnly(t *testing.T) {
	jobs := []batch.Job{
		{Technique: "no-such", Spec: tinyLoop("a"), Machine: machine.New(2)},
		{Technique: "list", Spec: tinyLoop("b"), Machine: machine.New(2)},
	}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil {
		t.Error("unknown technique did not fail")
	}
	if outs[1].Err != nil {
		t.Errorf("healthy job failed: %v", outs[1].Err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	stubs()
	countStub.calls.Store(0)
	cache := batch.NewCache(8)
	job := batch.Job{Technique: "test-count", Spec: tinyLoop("cached"), Machine: machine.New(2)}

	first, err := batch.Run(context.Background(), []batch.Job{job}, batch.Options{Cache: cache})
	if err != nil || first[0].Err != nil {
		t.Fatalf("first run: %v %v", err, first[0].Err)
	}
	if first[0].CacheHit {
		t.Error("first run reported a cache hit")
	}
	outs, err := batch.Run(context.Background(), []batch.Job{job, job}, batch.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if !o.CacheHit {
			t.Errorf("rerun job %d missed the cache", i)
		}
	}
	if got := countStub.calls.Load(); got != 1 {
		t.Errorf("scheduler ran %d times; cache should have held it to 1", got)
	}

	// A different machine is a different key.
	other := job
	other.Machine = machine.New(4)
	outs, _ = batch.Run(context.Background(), []batch.Job{other}, batch.Options{Cache: cache})
	if outs[0].CacheHit {
		t.Error("different machine hit the cache")
	}
	if got := countStub.calls.Load(); got != 2 {
		t.Errorf("scheduler ran %d times, want 2", got)
	}
}

// TestCrossCheckNeverServedFromCache warms a cache with a plain job and
// then runs the same job with CrossCheck: CrossCheck is not part of the
// key, so a lookup would hit and skip the reference checks the job
// exists to run. The checked job must compute, and must leave the cache
// as it found it.
func TestCrossCheckNeverServedFromCache(t *testing.T) {
	stubs()
	countStub.calls.Store(0)
	cache := batch.NewCache(8)
	plain := batch.Job{Technique: "test-count", Spec: tinyLoop("checked"), Machine: machine.New(2)}
	checked := plain
	checked.Config.CrossCheck = true
	if plain.Key() != checked.Key() {
		t.Fatal("scenario: CrossCheck is expected to share the plain job's key")
	}

	warm, err := batch.Run(context.Background(), []batch.Job{plain}, batch.Options{Cache: cache})
	if err != nil || warm[0].Err != nil {
		t.Fatalf("warming run: %v %v", err, warm[0].Err)
	}
	outs, err := batch.Run(context.Background(), []batch.Job{checked, checked}, batch.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil || o.CacheHit {
			t.Errorf("checked job %d: err %v, hit %v; want a computed result", i, o.Err, o.CacheHit)
		}
	}
	if got := countStub.calls.Load(); got != 3 {
		t.Errorf("scheduler ran %d times, want 3 (one plain, two checked)", got)
	}
	if cache.Len() != 1 {
		t.Errorf("cache len=%d, want 1: checked jobs must not touch the cache", cache.Len())
	}
}

// TestCacheKeepsEveryValue: a stored result stays until its cache is
// dropped, whatever the capacity NewCache was given. Three distinct
// jobs through a two-entry cache, then the same three again: every
// rerun hits, and the scheduler runs once per job.
func TestCacheKeepsEveryValue(t *testing.T) {
	stubs()
	countStub.calls.Store(0)
	c := batch.NewCache(2)
	var jobs []batch.Job
	for _, name := range []string{"a", "b", "c"} {
		jobs = append(jobs, batch.Job{Technique: "test-count", Spec: tinyLoop(name), Machine: machine.New(2)})
	}
	hits := 0
	for pass := 0; pass < 2; pass++ {
		for _, job := range jobs {
			outs, err := batch.Run(context.Background(), []batch.Job{job}, batch.Options{Cache: c})
			if err != nil || outs[0].Err != nil {
				t.Fatalf("%s: %v %v", job.Spec.Name, err, outs[0].Err)
			}
			if outs[0].CacheHit {
				hits++
			}
		}
	}
	if hits != 3 {
		t.Errorf("%d cache hits, want 3 (every rerun)", hits)
	}
	if got := countStub.calls.Load(); got != 3 {
		t.Errorf("scheduler ran %d times, want 3 (once per job)", got)
	}
}

func TestKeyDiscriminates(t *testing.T) {
	a := batch.Job{Technique: "list", Spec: tinyLoop("cfg"), Machine: machine.New(2)}
	b := a
	b.Machine = machine.New(4)
	c := a
	c.Technique = "grip"
	d := a
	d.Spec = tinyLoop("other")
	if a.Key() == b.Key() || a.Key() == c.Key() || a.Key() == d.Key() {
		t.Error("machine, technique, or spec did not change the cache key")
	}
	e := a
	e.Label = "display-only"
	if a.Key() != e.Key() {
		t.Error("Label leaked into the cache key")
	}
	f := a
	f.Config = sched.Config{Unwind: 8}
	g := a
	g.Config = sched.Config{Unwind: 16}
	if a.Key() == f.Key() || f.Key() == g.Key() {
		t.Error("config (unwind factor) did not change the cache key")
	}
	h := a
	h.Config = sched.Config{MaxUnwind: 96, Periods: 3} // the explicit defaults
	if a.Key() != h.Key() {
		t.Error("explicitly defaulted config keyed differently from the zero config")
	}
}

// TestConfigCachesIndependently runs the same (technique, loop,
// machine) cell under two unwind factors through one cache: the two
// configurations must occupy distinct entries (both first runs miss),
// and each must hit its own entry on rerun with bit-identical results.
func TestConfigCachesIndependently(t *testing.T) {
	cache := batch.NewCache(8)
	spec := tinyLoop("sweep")
	jobs := []batch.Job{
		{Technique: "grip", Spec: spec, Machine: machine.New(2), Config: sched.Config{Unwind: 8}},
		{Technique: "grip", Spec: spec, Machine: machine.New(2), Config: sched.Config{Unwind: 16}},
	}
	first, err := batch.Run(context.Background(), jobs, batch.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range first {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.CacheHit {
			t.Errorf("job %d: first run hit the cache; configs are not distinct entries", i)
		}
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries for 2 configs, want 2", cache.Len())
	}
	second, err := batch.Run(context.Background(), jobs, batch.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range second {
		if !o.CacheHit {
			t.Errorf("job %d: rerun with identical config missed the cache", i)
		}
		// Metrics move through the cache by value, so reruns compare by
		// content, not pointer identity — no caller aliases another's
		// result record.
		if o.Result.Metrics != first[i].Result.Metrics {
			t.Errorf("job %d: rerun metrics differ: %+v != %+v", i, o.Result.Metrics, first[i].Result.Metrics)
		}
	}
}

func TestCancellationMidBatch(t *testing.T) {
	testutil.LeakCheck(t)
	stubs()
	ctx, cancel := context.WithCancel(context.Background())
	var jobs []batch.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, batch.Job{
			Technique: "test-block", Spec: tinyLoop(fmt.Sprintf("c%d", i)), Machine: machine.New(2),
		})
	}
	done := make(chan struct{})
	var outs []batch.Outcome
	var runErr error
	go func() {
		outs, runErr = batch.Run(ctx, jobs, batch.Options{Parallelism: 2})
		close(done)
	}()
	// Workers are parked inside the blocked stub; cancel must unwedge
	// the whole batch without releasing the stub.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch did not return after cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Errorf("run error = %v, want context.Canceled", runErr)
	}
	cancelled := 0
	for _, o := range outs {
		if errors.Is(o.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no job reported cancellation")
	}
}

func TestPerJobTimeout(t *testing.T) {
	stubs()
	before := blockStub.cancelled.Load()
	jobs := []batch.Job{
		{Technique: "test-block", Spec: tinyLoop("slow"), Machine: machine.New(2)},
		{Technique: "list", Spec: tinyLoop("fast"), Machine: machine.New(2)},
	}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: 2, Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outs[0].Err, context.DeadlineExceeded) {
		t.Errorf("slow job error = %v, want DeadlineExceeded", outs[0].Err)
	}
	if outs[1].Err != nil {
		t.Errorf("fast job failed: %v", outs[1].Err)
	}
	// The timeout didn't just release the caller — the scheduler itself
	// observed the context and stopped.
	if got := blockStub.cancelled.Load(); got != before+1 {
		t.Errorf("scheduler cancellations = %d, want %d: the timed-out computation kept running", got, before+1)
	}
}

// TestTimeoutStopsRealScheduler is the acceptance test for cooperative
// cancellation through the whole stack: a real GRiP job on a large
// fixed unwinding with a tiny timeout must fail with DeadlineExceeded
// AND leave no scheduler goroutine behind — the engine runs backends on
// its worker goroutines and the step loops observe the context, so when
// Run returns, nothing is still burning CPU on the abandoned schedule.
func TestTimeoutStopsRealScheduler(t *testing.T) {
	spec := &ir.LoopSpec{
		Name: "wide",
		Body: []ir.BodyOp{
			ir.BLoad("a", ir.Aff("A", 1, 0)),
			ir.BLoad("b", ir.Aff("B", 1, 0)),
			ir.BMul("c", "a", "b"),
			ir.BMul("d", "a", "c"),
			ir.BAdd("e", "c", "d"),
			ir.BMul("f", "e", "b"),
			ir.BAdd("g", "f", "a"),
			ir.BStore(ir.Aff("X", 1, 0), "g"),
		},
		Step: 1, TripVar: "n",
	}
	testutil.LeakCheck(t)
	jobs := []batch.Job{{
		Technique: "grip", Spec: spec, Machine: machine.New(2),
		Config: sched.Config{Unwind: 96},
	}}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{Timeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outs[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", outs[0].Err)
	}
	if outs[0].Result != nil {
		t.Error("timed-out job returned a result")
	}
}

// TestSingleFlightDedup submits one job four times concurrently against
// a shared cache: single-flight must collapse them to exactly one
// scheduler call, with every outcome getting the shared result.
func TestSingleFlightDedup(t *testing.T) {
	stubs()
	gate := make(chan struct{})
	flightStub.gate = gate
	flightStub.calls.Store(0)
	cache := batch.NewCache(8)
	job := batch.Job{Technique: "test-flight", Spec: tinyLoop("dedup"), Machine: machine.New(2)}
	jobs := []batch.Job{job, job, job, job}
	go func() {
		// Let the batch wedge on the leader's computation, then release.
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	outs, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	leaders := 0
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Result != outs[0].Result {
			t.Errorf("job %d: got a different result pointer; computation not shared", i)
		}
		if !o.CacheHit {
			leaders++
		}
	}
	if got := flightStub.calls.Load(); got != 1 {
		t.Errorf("scheduler ran %d times for 4 identical in-flight jobs, want 1", got)
	}
	if leaders != 1 {
		t.Errorf("%d outcomes report CacheHit=false, want exactly the leader", leaders)
	}
}

// TestSingleFlightLeaderTimeoutNotShared: a leader cancelled by its own
// per-job timeout must not poison a later-arriving duplicate — the
// waiter retries within its own remaining budget. (The budget covers
// waiting too: a duplicate submitted at the same instant as the leader
// deadlines alongside it rather than getting a fresh allowance.)
func TestSingleFlightLeaderTimeoutNotShared(t *testing.T) {
	stubs()
	gate := make(chan struct{})
	slowStub.gate = gate
	slowStub.calls.Store(0)
	cache := batch.NewCache(8)
	job := batch.Job{Technique: "test-slow-leader", Spec: tinyLoop("retry"), Machine: machine.New(2)}
	opts := batch.Options{Timeout: 400 * time.Millisecond, Cache: cache}

	// Timeline: the leader starts at 0 and deadlines at 400ms; the
	// follower starts at 200 (budget until 600), joins the leader's
	// flight, sees it fail at 400, retries, and the gate opens at 500 —
	// inside the follower's remaining budget.
	go func() {
		time.Sleep(500 * time.Millisecond)
		close(gate)
	}()
	leaderDone := make(chan batch.Outcome, 1)
	go func() {
		outs, _ := batch.Run(context.Background(), []batch.Job{job}, opts)
		leaderDone <- outs[0]
	}()
	time.Sleep(200 * time.Millisecond)
	outs, err := batch.Run(context.Background(), []batch.Job{job}, opts)
	if err != nil {
		t.Fatal(err)
	}
	leader := <-leaderDone
	if !errors.Is(leader.Err, context.DeadlineExceeded) {
		t.Errorf("leader err = %v, want DeadlineExceeded", leader.Err)
	}
	if outs[0].Err != nil || outs[0].Result == nil {
		t.Errorf("follower did not recover from the leader's timeout: res=%v err=%v",
			outs[0].Result, outs[0].Err)
	}
	if got := slowStub.calls.Load(); got != 2 {
		t.Errorf("scheduler calls = %d, want 2 (leader + retrying follower)", got)
	}
}

// TestParallelBitIdentical runs a real Table-1-style matrix across all
// four techniques sequentially and with four workers and requires
// identical results — the scheduling backends are pure functions, so
// execution order must not leak into the cells. Run with -race in CI,
// this also exercises the engine and the run's POST phase-1 memo for
// data races.
func TestParallelBitIdentical(t *testing.T) {
	loop := &ir.LoopSpec{
		Name: "hydro",
		Body: []ir.BodyOp{
			ir.BLoad("z10", ir.Aff("Z", 1, 10)),
			ir.BLoad("z11", ir.Aff("Z", 1, 11)),
			ir.BMul("a", "r", "z10"),
			ir.BMul("b", "t", "z11"),
			ir.BAdd("c", "a", "b"),
			ir.BLoad("y", ir.Aff("Y", 1, 0)),
			ir.BMul("d", "y", "c"),
			ir.BAdd("e", "q", "d"),
			ir.BStore(ir.Aff("X", 1, 0), "e"),
		},
		Step: 1, TripVar: "n", LiveIn: []string{"q", "r", "t"},
	}
	var jobs []batch.Job
	for _, f := range []int{2, 4} {
		for _, tech := range []string{"grip", "post", "modulo", "list"} {
			jobs = append(jobs, batch.Job{Technique: tech, Spec: loop, Machine: machine.New(f)})
		}
	}
	seq, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		s, p := seq[i], par[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("job %d: seq err %v, par err %v", i, s.Err, p.Err)
		}
		if s.Result.Speedup != p.Result.Speedup ||
			s.Result.CyclesPerIter != p.Result.CyclesPerIter ||
			s.Result.Converged != p.Result.Converged ||
			s.Result.Rows != p.Result.Rows {
			t.Errorf("%s @%dFU: parallel diverged: seq %+v par %+v",
				jobs[i].Technique, jobs[i].Machine.OpSlots, s.Result, p.Result)
		}
	}
}

// TestWantRawBypassesCache pins the cache rule for WantRaw jobs: the
// cache holds metrics only, so a job that wants the scheduled graph
// computes every time, even when its metrics are cached, returns a
// graph of its own, and neither reads nor writes the cache.
func TestWantRawBypassesCache(t *testing.T) {
	cache := batch.NewCache(64)
	mk := func(name string, want sched.Want) batch.Job {
		return batch.Job{Technique: "grip", Spec: tinyLoop(name), Machine: machine.New(2), Want: want}
	}
	run := func(j batch.Job) batch.Outcome {
		t.Helper()
		outs, err := batch.Run(context.Background(), []batch.Job{j}, batch.Options{Cache: cache})
		if err != nil || outs[0].Err != nil {
			t.Fatal(err, outs[0].Err)
		}
		return outs[0]
	}

	// Against a cold cache: computed, and nothing stored.
	if o := run(mk("rawcold", sched.WantRaw)); o.CacheHit || o.Result.Raw() == nil {
		t.Errorf("cold WantRaw job: hit %v, graph %v; want a computed graph", o.CacheHit, o.Result.Raw() != nil)
	}
	if cache.Len() != 0 {
		t.Errorf("cold WantRaw job stored %d entries", cache.Len())
	}

	// Against cached metrics: computed anyway, each time a new graph.
	cached := run(mk("rawc", sched.WantMetrics))
	if cached.Result.Raw() != nil {
		t.Fatal("metrics-only job carries a raw attachment")
	}
	var graphs []any
	for i := 0; i < 2; i++ {
		o := run(mk("rawc", sched.WantRaw))
		if o.CacheHit {
			t.Errorf("WantRaw run %d served from the cache", i)
		}
		if o.Result.Raw() == nil {
			t.Fatalf("WantRaw run %d returned no graph", i)
		}
		if o.Result.Metrics != cached.Result.Metrics {
			t.Errorf("Want changed the metrics: %+v != %+v", o.Result.Metrics, cached.Result.Metrics)
		}
		graphs = append(graphs, o.Result.Raw())
	}
	if graphs[0] == graphs[1] {
		t.Error("two WantRaw jobs share one graph")
	}
	if cache.Len() != 1 {
		t.Errorf("WantRaw jobs touched the cache: len %d, want 1", cache.Len())
	}
}

// TestBenchReport pins the cell layout, including the config label:
// empty whenever the job's fingerprint equals the paper default's —
// CrossCheck, which the fingerprint omits, included — so such cells
// still match the paper-default baseline, and the fingerprint
// otherwise.
func TestBenchReport(t *testing.T) {
	spec := tinyLoop("r0")
	m := machine.New(2)
	jobs := []batch.Job{
		{Technique: "list", Spec: spec, Machine: m, Label: "LL0"},
		{Technique: "list", Spec: spec, Machine: m, Config: sched.Config{CrossCheck: true}},
		{Technique: "list", Spec: spec, Machine: m, Config: sched.Config{Unwind: 24}},
	}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := batch.NewBenchReport(outs, 3, 10*time.Millisecond)
	if rep.Parallelism != 3 || len(rep.Cells) != len(jobs) {
		t.Fatalf("bad report %+v", rep)
	}
	c := rep.Cells[0]
	if c.Loop != "LL0" || c.FUs != 2 || c.Technique != "list" || c.Speedup <= 0 {
		t.Errorf("bad cell %+v", c)
	}
	for i, want := range []string{"", "", sched.Config{Unwind: 24}.Fingerprint()} {
		if got := rep.Cells[i].Config; got != want {
			t.Errorf("cell %d config label %q, want %q", i, got, want)
		}
	}
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"loop": "LL0"`) {
		t.Errorf("JSON missing loop name: %s", sb.String())
	}
}

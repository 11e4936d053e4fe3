package batch_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sched/batch"
	"repro/internal/testutil"
)

// panicStub is a backend that panics while armed — the poisoned-cell
// case the batch engine must survive.
type panicStub struct {
	name  string
	armed atomic.Bool
	calls atomic.Int64
}

func (s *panicStub) Name() string { return s.name }

func (s *panicStub) Schedule(ctx context.Context, req sched.Request) (*sched.Result, error) {
	s.calls.Add(1)
	if s.armed.Load() {
		panic("poisoned backend: " + req.Spec.Name)
	}
	return sched.NewResult(sched.Metrics{Technique: s.name, Loop: req.Spec.Name, Speedup: 1, Converged: true}, nil), nil
}

var panicOnce sync.Once
var panicker = &panicStub{name: "test-panic"}

func panicStubs() {
	panicOnce.Do(func() { sched.Register(panicker) })
}

// TestPanicIsolatedPerJob: a panicking backend fails its own cell with
// a typed *sched.PanicError and takes nothing else down — no cache in
// the loop, so this exercises runOne's own recovery perimeter.
func TestPanicIsolatedPerJob(t *testing.T) {
	testutil.LeakCheck(t)
	panicStubs()
	panicker.armed.Store(true)
	defer panicker.armed.Store(false)

	jobs := []batch.Job{
		{Technique: "test-panic", Spec: tinyLoop("poisoned"), Machine: machine.New(2)},
		{Technique: "list", Spec: tinyLoop("healthy"), Machine: machine.New(2)},
	}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var pe *sched.PanicError
	if !errors.As(outs[0].Err, &pe) {
		t.Fatalf("poisoned cell returned %v, want *sched.PanicError", outs[0].Err)
	}
	if pe.Key != jobs[0].Key() {
		t.Errorf("PanicError.Key = %q, want %q", pe.Key, jobs[0].Key())
	}
	if !bytes.Contains(pe.Stack, []byte("panic")) {
		t.Errorf("PanicError.Stack carries no stack trace: %q", pe.Stack)
	}
	if outs[1].Err != nil || outs[1].Result == nil {
		t.Fatalf("healthy cell caught the blast: %v", outs[1].Err)
	}
}

// TestSingleFlightPanicPropagation: concurrent requests for one
// poisoned key all receive a *sched.PanicError — the leader's flight
// retires instead of stranding its waiters, each waiter retries into
// its own leadership and its own panic, and nothing hangs. Once the
// backend heals, the next request recomputes: errors are never cached.
func TestSingleFlightPanicPropagation(t *testing.T) {
	testutil.LeakCheck(t)
	panicStubs()
	panicker.armed.Store(true)
	defer panicker.armed.Store(false)

	const n = 8
	cache := batch.NewCache(64)
	job := batch.Job{Technique: "test-panic", Spec: tinyLoop("shared-poison"), Machine: machine.New(2)}
	jobs := make([]batch.Job, n)
	for i := range jobs {
		jobs[i] = job
	}
	calls := panicker.calls.Load()
	outs, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: n, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		var pe *sched.PanicError
		if !errors.As(o.Err, &pe) {
			t.Fatalf("waiter %d got %v, want *sched.PanicError", i, o.Err)
		}
		if pe.Key != job.Key() {
			t.Errorf("waiter %d: PanicError.Key = %q, want %q", i, pe.Key, job.Key())
		}
		if len(pe.Stack) == 0 {
			t.Errorf("waiter %d: empty panic stack", i)
		}
	}
	if got := panicker.calls.Load() - calls; got != n {
		t.Errorf("backend ran %d times, want %d (every caller retried into its own panic)", got, n)
	}

	// Heal the backend: the same key recomputes — the panic was not
	// cached as a result, and the flight table holds no tombstone.
	panicker.armed.Store(false)
	before := panicker.calls.Load()
	outs, err = batch.Run(context.Background(), jobs[:1], batch.Options{Cache: cache})
	if err != nil || outs[0].Err != nil {
		t.Fatalf("healed rerun failed: %v / %v", err, outs[0].Err)
	}
	if outs[0].CacheHit {
		t.Error("healed rerun was served from cache — a failure got cached")
	}
	if panicker.calls.Load() != before+1 {
		t.Errorf("healed rerun made %d backend calls, want 1", panicker.calls.Load()-before)
	}
}

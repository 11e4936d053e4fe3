package lru

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// errMiss is what lookup's compute returns: errors are never stored, so
// a lookup that misses leaves the cache as it found it.
var errMiss = errors.New("miss")

// lookup reports the value cached under key. A hit marks the key most
// recently used, as every GetOrCompute hit does.
func lookup(c *Cache[string, int], key string) (int, bool) {
	v, src, err := c.GetOrCompute(context.Background(), key, func() (int, error) { return 0, errMiss })
	return v, err == nil && src == Hit
}

// store caches val under an absent key through a computing call.
func store(t *testing.T, c *Cache[string, int], key string, val int) {
	t.Helper()
	if _, src, err := c.GetOrCompute(context.Background(), key, func() (int, error) { return val, nil }); err != nil || src != Computed {
		t.Fatalf("store %s: source %d, err %v; want a computed value", key, src, err)
	}
}

func TestEvictionAndRecency(t *testing.T) {
	c := New[string, int](2)
	store(t, c, "a", 1)
	store(t, c, "b", 2)
	if v, ok := lookup(c, "a"); !ok || v != 1 {
		t.Fatalf("lookup(a) = %d, %v", v, ok)
	}
	store(t, c, "c", 3) // evicts b (a was refreshed)
	if _, ok := lookup(c, "b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := lookup(c, "a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	store(t, c, "b", 20) // evicts c, the least recently used
	if _, ok := lookup(c, "c"); ok {
		t.Error("c survived eviction")
	}
	if v, ok := lookup(c, "b"); !ok || v != 20 {
		t.Errorf("recomputed b = %d, %v; want 20", v, ok)
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	c := New[string, int](0)
	store(t, c, "1", 1)
	if _, ok := lookup(c, "1"); !ok {
		t.Error("capacity-0 cache unusable")
	}
	store(t, c, "2", 2)
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// gated is a compute callback that counts its calls, reports each start
// on started, and blocks until gate closes. started is buffered past any
// test's call count, so reporting never blocks a compute.
type gated struct {
	calls   atomic.Int64
	started chan struct{}
	gate    chan struct{}
}

func newGated() *gated {
	return &gated{started: make(chan struct{}, 16), gate: make(chan struct{})}
}

func (g *gated) compute(val int, err error) func() (int, error) {
	return func() (int, error) {
		g.calls.Add(1)
		g.started <- struct{}{}
		<-g.gate
		return val, err
	}
}

type call struct {
	val int
	src Source
	err error
}

// parkCtx reports on parked each time a waiter reaches its select on a
// live flight: the select evaluates ctx.Done() only after the flight
// check, so a test can wait for its waiters to park without sleeping.
// parked is buffered past any test's waiter count, so reporting never
// blocks a waiter.
type parkCtx struct {
	context.Context
	parked chan struct{}
}

func newParkCtx() parkCtx {
	return parkCtx{Context: context.Background(), parked: make(chan struct{}, 16)}
}

func (c parkCtx) Done() <-chan struct{} {
	c.parked <- struct{}{}
	return c.Context.Done()
}

// awaitParked waits until n waiters have parked on a flight.
func (c parkCtx) awaitParked(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-c.parked:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d waiters parked on the flight", i, n)
		}
	}
}

// TestSingleFlightSharesOneComputation: concurrent misses on one key
// run compute once. The leader reports Computed, every waiter Shared
// with the leader's value, and the next call is a Hit.
func TestSingleFlightSharesOneComputation(t *testing.T) {
	testutil.LeakCheck(t)
	const n = 8
	c := New[string, int](4)
	g := newGated()
	ctx := newParkCtx()
	calls := make([]call, n)
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		v, src, err := c.GetOrCompute(ctx, "k", g.compute(42, nil))
		calls[i] = call{v, src, err}
	}
	wg.Add(n)
	go run(0)
	<-g.started
	for i := 1; i < n; i++ {
		go run(i)
	}
	ctx.awaitParked(t, n-1)
	close(g.gate)
	wg.Wait()

	if got := g.calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times for %d concurrent misses, want 1", got, n)
	}
	for i, cl := range calls {
		want := Shared
		if i == 0 {
			want = Computed
		}
		if cl.err != nil || cl.val != 42 || cl.src != want {
			t.Errorf("call %d = %+v, want 42 from source %d", i, cl, want)
		}
	}
	if v, src, err := c.GetOrCompute(context.Background(), "k", g.compute(0, nil)); err != nil || v != 42 || src != Hit {
		t.Errorf("rerun = %d/%d/%v, want a Hit on 42", v, src, err)
	}
	if g.calls.Load() != 1 {
		t.Error("a Hit ran compute")
	}
}

// TestSingleFlightErrorNotStoredOrShared: a failed leader stores
// nothing and hands its error to nobody. A caller waiting on the failed
// flight computes its own value.
func TestSingleFlightErrorNotStoredOrShared(t *testing.T) {
	testutil.LeakCheck(t)
	boom := errors.New("leader failed")
	c := New[string, int](4)
	g := newGated()
	leader := make(chan call, 1)
	go func() {
		v, src, err := c.GetOrCompute(context.Background(), "k", g.compute(0, boom))
		leader <- call{v, src, err}
	}()
	<-g.started
	ctx := newParkCtx()
	waiter := make(chan call, 1)
	go func() {
		v, src, err := c.GetOrCompute(ctx, "k", func() (int, error) { return 7, nil })
		waiter <- call{v, src, err}
	}()
	ctx.awaitParked(t, 1)
	close(g.gate)

	if l := <-leader; !errors.Is(l.err, boom) || l.src != Computed {
		t.Errorf("leader = %+v, want its own error", l)
	}
	if w := <-waiter; w.err != nil || w.val != 7 || w.src != Computed {
		t.Errorf("waiter = %+v, want its own computed 7", w)
	}
	if v, ok := lookup(c, "k"); !ok || v != 7 {
		t.Errorf("stored %d/%v, want the waiter's 7", v, ok)
	}

	if _, _, err := c.GetOrCompute(context.Background(), "other", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := lookup(c, "other"); ok || c.Len() != 1 {
		t.Errorf("an error was stored: Len = %d", c.Len())
	}
}

// TestSingleFlightPanicRetiresFlight: a panicking leader retires its
// flight on the way out. The panic reaches the leader's caller, the
// waiter computes its own value, and nothing hangs.
func TestSingleFlightPanicRetiresFlight(t *testing.T) {
	testutil.LeakCheck(t)
	c := New[string, int](4)
	g := newGated()
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.GetOrCompute(context.Background(), "k", func() (int, error) {
			g.started <- struct{}{}
			<-g.gate
			panic("leader panicked")
		})
	}()
	<-g.started
	ctx := newParkCtx()
	waiter := make(chan call, 1)
	go func() {
		v, src, err := c.GetOrCompute(ctx, "k", func() (int, error) { return 9, nil })
		waiter <- call{v, src, err}
	}()
	ctx.awaitParked(t, 1)
	close(g.gate)

	if v := <-recovered; v != "leader panicked" {
		t.Errorf("leader's caller recovered %v, want the compute's panic", v)
	}
	select {
	case w := <-waiter:
		if w.err != nil || w.val != 9 || w.src != Computed {
			t.Errorf("waiter = %+v, want its own computed 9", w)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded on a panicked flight")
	}
	if v, ok := lookup(c, "k"); !ok || v != 9 {
		t.Errorf("stored %d/%v, want the waiter's 9", v, ok)
	}
}

// TestSingleFlightWaiterCtxEndsWait: a waiter whose context ends gets
// ctx.Err() while the leader keeps computing and stores its value.
func TestSingleFlightWaiterCtxEndsWait(t *testing.T) {
	testutil.LeakCheck(t)
	c := New[string, int](4)
	g := newGated()
	leader := make(chan call, 1)
	go func() {
		v, src, err := c.GetOrCompute(context.Background(), "k", g.compute(5, nil))
		leader <- call{v, src, err}
	}()
	<-g.started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := c.GetOrCompute(ctx, "k", func() (int, error) {
		t.Error("a waiter ran compute while the flight was live")
		return 0, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter err = %v, want DeadlineExceeded", err)
	}
	close(g.gate)
	if l := <-leader; l.err != nil || l.val != 5 || l.src != Computed {
		t.Errorf("leader = %+v, want its computed 5", l)
	}
	if v, ok := lookup(c, "k"); !ok || v != 5 {
		t.Errorf("stored %d/%v, want the leader's 5", v, ok)
	}
}

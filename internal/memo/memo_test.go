package memo

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
// a lookup that misses leaves the table as it found it.
var errMiss = errors.New("miss")

// lookup reports the value stored under key.
func lookup(c *Table[string, int], key string) (int, bool) {
	v, hit, err := c.GetOrCompute(context.Background(), key, func() (int, error) { return 0, errMiss })
	return v, err == nil && hit
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
	hit bool
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
// run compute once. The leader computes, every waiter hits on the
// leader's value, and the next call hits without computing.
func TestSingleFlightSharesOneComputation(t *testing.T) {
	testutil.LeakCheck(t)
	const n = 8
	c := new(Table[string, int])
	g := newGated()
	ctx := newParkCtx()
	calls := make([]call, n)
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		v, hit, err := c.GetOrCompute(ctx, "k", g.compute(42, nil))
		calls[i] = call{v, hit, err}
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
		if want := i != 0; cl.err != nil || cl.val != 42 || cl.hit != want {
			t.Errorf("call %d = %+v, want 42 with hit %v", i, cl, want)
		}
	}
	if v, hit, err := c.GetOrCompute(context.Background(), "k", g.compute(0, nil)); err != nil || v != 42 || !hit {
		t.Errorf("rerun = %d/%v/%v, want a hit on 42", v, hit, err)
	}
	if g.calls.Load() != 1 {
		t.Error("a hit ran compute")
	}
}

// TestSingleFlightErrorNotStoredOrShared: a failed leader stores
// nothing and hands its error to nobody. A caller waiting on the failed
// flight computes its own value.
func TestSingleFlightErrorNotStoredOrShared(t *testing.T) {
	testutil.LeakCheck(t)
	boom := errors.New("leader failed")
	c := new(Table[string, int])
	g := newGated()
	leader := make(chan call, 1)
	go func() {
		v, hit, err := c.GetOrCompute(context.Background(), "k", g.compute(0, boom))
		leader <- call{v, hit, err}
	}()
	<-g.started
	ctx := newParkCtx()
	waiter := make(chan call, 1)
	go func() {
		v, hit, err := c.GetOrCompute(ctx, "k", func() (int, error) { return 7, nil })
		waiter <- call{v, hit, err}
	}()
	ctx.awaitParked(t, 1)
	close(g.gate)

	if l := <-leader; !errors.Is(l.err, boom) || l.hit {
		t.Errorf("leader = %+v, want its own error", l)
	}
	if w := <-waiter; w.err != nil || w.val != 7 || w.hit {
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
	c := new(Table[string, int])
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
		v, hit, err := c.GetOrCompute(ctx, "k", func() (int, error) { return 9, nil })
		waiter <- call{v, hit, err}
	}()
	ctx.awaitParked(t, 1)
	close(g.gate)

	if v := <-recovered; v != "leader panicked" {
		t.Errorf("leader's caller recovered %v, want the compute's panic", v)
	}
	select {
	case w := <-waiter:
		if w.err != nil || w.val != 9 || w.hit {
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
	c := new(Table[string, int])
	g := newGated()
	leader := make(chan call, 1)
	go func() {
		v, hit, err := c.GetOrCompute(context.Background(), "k", g.compute(5, nil))
		leader <- call{v, hit, err}
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
	if l := <-leader; l.err != nil || l.val != 5 || l.hit {
		t.Errorf("leader = %+v, want its computed 5", l)
	}
	if v, ok := lookup(c, "k"); !ok || v != 5 {
		t.Errorf("stored %d/%v, want the leader's 5", v, ok)
	}
}

// Package memo is the repository's one flight table: a map safe for
// concurrent use that computes each key's value at most once and keeps
// it until the table is dropped. It serves POST's phase-1 memo (one
// per batch run), CheckLoop's semantic references (one per call) and
// the benchmark's batch cache; each lives only as long as its owner,
// so it never evicts.
package memo

import (
	"context"
	"sync"
)

// flight is one in-progress computation other callers wait on. val and
// ok are written before done is closed, never after.
type flight[V any] struct {
	done chan struct{}
	val  V
	ok   bool
}

// Table maps keys to computed values. The zero value is an empty table
// ready for use.
type Table[K comparable, V any] struct {
	mu      sync.Mutex
	vals    map[K]V
	flights map[K]*flight[V]
}

// GetOrCompute returns the value under key, running compute at most
// once across concurrent callers: the first caller to miss (the
// leader) runs it, and callers arriving while it runs wait and share
// its value. hit reports a value this caller did not compute: stored
// earlier, or shared from another caller's flight. A successful value
// is stored; an error is neither stored nor shared, because it may be
// private to the leader (its own deadline), so waiters retry and one of
// them leads the next flight. A waiter whose ctx ends stops waiting and
// returns ctx.Err(); the leader is unaffected. A panicking compute
// retires its flight before the panic reaches the leader's caller, so
// waiters retry instead of hanging. A failed call is never a hit.
func (t *Table[K, V]) GetOrCompute(ctx context.Context, key K, compute func() (V, error)) (val V, hit bool, err error) {
	for {
		// The lookup and the flight check share one critical section,
		// and a leader stores its value in the same section that retires
		// its flight, so a caller always finds one of them.
		t.mu.Lock()
		if v, ok := t.vals[key]; ok {
			t.mu.Unlock()
			return v, true, nil
		}
		f, inflight := t.flights[key]
		if !inflight {
			if t.flights == nil {
				t.vals, t.flights = map[K]V{}, map[K]*flight[V]{}
			}
			f = &flight[V]{done: make(chan struct{})}
			t.flights[key] = f
			t.mu.Unlock()
			val, err = t.lead(key, f, compute)
			return val, false, err
		}
		t.mu.Unlock()
		select {
		case <-f.done:
			if f.ok {
				return f.val, true, nil
			}
		case <-ctx.Done():
			var zero V
			return zero, false, ctx.Err()
		}
	}
}

// lead runs compute for the flight f it registered under key. The
// flight retires in a defer, so a panic releases the waiters too.
func (t *Table[K, V]) lead(key K, f *flight[V], compute func() (V, error)) (val V, err error) {
	defer func() {
		t.mu.Lock()
		if f.ok {
			t.vals[key] = f.val
		}
		delete(t.flights, key)
		t.mu.Unlock()
		close(f.done)
	}()
	val, err = compute()
	if err == nil {
		f.val, f.ok = val, true
	}
	return val, err
}

// Len returns the number of stored values.
func (t *Table[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.vals)
}

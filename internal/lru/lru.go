// Package lru implements the minimal thread-safe LRU map shared by the
// scheduling caches (batch results, POST phase-1 memo), with the
// repository's one single-flight (GetOrCompute).
package lru

import (
	"container/list"
	"context"
	"sync"
)

type entry[K comparable, V any] struct {
	key K
	val V
}

// flight is one in-progress computation other callers wait on. val and
// ok are written before done is closed, never after.
type flight[V any] struct {
	done chan struct{}
	val  V
	ok   bool
}

// Cache is a fixed-capacity LRU map safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	items    map[K]*list.Element
	flights  map[K]*flight[V]
}

// New returns a cache holding up to capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[K]*list.Element),
		flights:  make(map[K]*flight[V]),
	}
}

// Source says what served a successful GetOrCompute call.
type Source uint8

const (
	// Computed: this caller ran compute. A failed call reports it too.
	Computed Source = iota
	// Hit: the value was already cached.
	Hit
	// Shared: another caller's in-flight computation supplied it.
	Shared
)

// GetOrCompute returns the value under key, running compute at most
// once across concurrent callers: the first caller to miss (the
// leader) runs it, and callers arriving while it runs wait and share
// its value. A successful value is stored; an error is neither stored
// nor shared, because it may be private to the leader (its own
// deadline), so waiters retry and one of them leads the next flight.
// A waiter whose ctx ends stops waiting and returns ctx.Err(); the
// leader is unaffected. A panicking compute retires its flight before
// the panic reaches the leader's caller, so waiters retry instead of
// hanging.
func (c *Cache[K, V]) GetOrCompute(ctx context.Context, key K, compute func() (V, error)) (V, Source, error) {
	for {
		// The lookup and the flight check share one critical section,
		// and a leader stores its value in the same section that retires
		// its flight, so a caller always finds one of them.
		c.mu.Lock()
		if val, ok := c.get(key); ok {
			c.mu.Unlock()
			return val, Hit, nil
		}
		f, inflight := c.flights[key]
		if !inflight {
			f = &flight[V]{done: make(chan struct{})}
			c.flights[key] = f
			c.mu.Unlock()
			val, err := c.lead(key, f, compute)
			return val, Computed, err
		}
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.ok {
				return f.val, Shared, nil
			}
		case <-ctx.Done():
			var zero V
			return zero, Computed, ctx.Err()
		}
	}
}

// lead runs compute for the flight f it registered under key. The
// flight retires in a defer, so a panic releases the waiters too.
func (c *Cache[K, V]) lead(key K, f *flight[V], compute func() (V, error)) (val V, err error) {
	defer func() {
		c.mu.Lock()
		if f.ok {
			c.put(key, f.val)
		}
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()
	val, err = compute()
	if err == nil {
		f.val, f.ok = val, true
	}
	return val, err
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// get returns the value under key, marking it most recently used. The
// caller holds the lock.
func (c *Cache[K, V]) get(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// put stores val under key, evicting the least recently used entry when
// over capacity. The caller holds the lock, and key is absent: only a
// flight's leader stores, and a flight is led only for a missing key.
func (c *Cache[K, V]) put(key K, val V) {
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	for c.order.Len() > c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*entry[K, V]).key)
	}
}

package batch

import (
	"context"

	"repro/internal/lru"
	"repro/internal/sched"
)

// Cache is the in-memory metrics cache the batch engine consults before
// running a metrics-only job. Its single-flight
// (lru.Cache.GetOrCompute) makes concurrent requests for one key share
// one computation.
//
// Entries are metrics-only results (the engine sends only metrics-only
// jobs here; see runOne). Hits and flight waiters share the stored
// *sched.Result, so callers must treat it as read-only.
type Cache struct {
	mem *lru.Cache[string, *sched.Result]
}

// NewCache returns a cache holding up to capacity metrics entries.
func NewCache(capacity int) *Cache {
	return &Cache{mem: lru.New[string, *sched.Result](capacity)}
}

// getOrCompute returns the result under key and whether the cache or
// another caller's flight served it rather than compute itself. Errors
// are never stored, and a waiter whose ctx ends returns ctx.Err().
func (c *Cache) getOrCompute(ctx context.Context, key string, compute func() (*sched.Result, error)) (*sched.Result, bool, error) {
	res, src, err := c.mem.GetOrCompute(ctx, key, compute)
	return res, src != lru.Computed, err
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.mem.Len() }

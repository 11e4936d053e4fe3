package batch

import (
	"context"

	"repro/internal/lru"
	"repro/internal/sched"
)

// Tier identifies what served a job's result.
type Tier uint8

const (
	// TierCompute: nothing served it — the caller ran the scheduler.
	TierCompute Tier = iota
	// TierMemory: the in-process metrics cache.
	TierMemory
	// TierFlight: another caller's in-flight computation was shared.
	TierFlight
)

// String names the tier for reports ("compute", "memory", "flight").
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierFlight:
		return "flight"
	default:
		return "compute"
	}
}

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

// getOrCompute returns the result under key and the tier that served
// it: the cache, another caller's flight, or compute itself. Errors are
// never stored, and a waiter whose ctx ends returns ctx.Err().
func (c *Cache) getOrCompute(ctx context.Context, key string, compute func() (*sched.Result, error)) (*sched.Result, Tier, error) {
	res, src, err := c.mem.GetOrCompute(ctx, key, compute)
	switch src {
	case lru.Hit:
		return res, TierMemory, err
	case lru.Shared:
		return res, TierFlight, err
	}
	return res, TierCompute, err
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.mem.Len() }

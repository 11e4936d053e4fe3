package batch

import (
	"context"

	"repro/internal/lru"
	"repro/internal/sched"
	"repro/internal/sched/store"
)

// Tier identifies which tier of the result store served a lookup.
type Tier uint8

const (
	// TierCompute: nothing served it — the caller ran the scheduler.
	TierCompute Tier = iota
	// TierMemory: the in-process metrics tier.
	TierMemory
	// TierDisk: the persistent metrics tier; the entry was promoted to
	// the memory tier on the way out.
	TierDisk
	// TierFlight: another caller's in-flight computation was shared.
	TierFlight
)

// String names the tier for reports ("compute", "memory", "disk",
// "flight").
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	case TierFlight:
		return "flight"
	default:
		return "compute"
	}
}

// Cache is the metrics store the batch engine consults before running
// a metrics-only job: memory, then disk (when attached), then compute,
// writing a computed result through to disk. The memory tier's
// single-flight (lru.Cache.GetOrCompute) makes concurrent requests for
// one key share one computation.
//
// Entries are metrics-only results (the engine sends only metrics-only
// jobs here; see runOne). Hits and flight waiters share the stored
// *sched.Result, so callers must treat it as read-only.
type Cache struct {
	mem  *lru.Cache[string, *sched.Result]
	disk *store.Disk
}

// NewCache returns a memory-only cache holding up to capacity metrics
// entries; AttachDisk adds the persistent tier.
func NewCache(capacity int) *Cache {
	return &Cache{mem: lru.New[string, *sched.Result](capacity)}
}

// AttachDisk installs the persistent tier. Call it during setup,
// before the cache sees traffic.
func (c *Cache) AttachDisk(disk *store.Disk) { c.disk = disk }

// getOrCompute returns the result under key and the tier that served
// it: the memory tier, another caller's flight, the disk tier (the
// flight leader looks there before computing), or compute itself.
// Errors are never stored, and a waiter whose ctx ends returns
// ctx.Err().
func (c *Cache) getOrCompute(ctx context.Context, key string, compute func() (*sched.Result, error)) (*sched.Result, Tier, error) {
	fromDisk := false
	res, src, err := c.mem.GetOrCompute(ctx, key, func() (*sched.Result, error) {
		if c.disk != nil {
			if m, ok := c.disk.Get(key); ok {
				fromDisk = true
				return sched.NewResult(m, nil), nil
			}
		}
		res, err := compute()
		if err == nil && c.disk != nil {
			c.disk.Put(key, res.Metrics)
		}
		return res, err
	})
	switch {
	case src == lru.Hit:
		return res, TierMemory, err
	case src == lru.Shared:
		return res, TierFlight, err
	case fromDisk:
		return res, TierDisk, err
	}
	return res, TierCompute, err
}

// Len returns the number of entries in the memory tier.
func (c *Cache) Len() int { return c.mem.Len() }

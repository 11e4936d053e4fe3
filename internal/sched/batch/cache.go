package batch

import (
	"repro/internal/memo"
	"repro/internal/sched"
)

// Cache is the metrics cache the batch engine consults before running a
// metrics-only job (see runOne): a flight table of results under
// Job.Key, so concurrent requests for one key share one computation.
// Hits and flight waiters share the stored *sched.Result, so callers
// must treat it as read-only. Only the benchmark builds one.
type Cache = memo.Table[string, *sched.Result]

// NewCache returns an empty cache. The table never evicts, so capacity
// is ignored.
func NewCache(capacity int) *Cache { return new(Cache) }

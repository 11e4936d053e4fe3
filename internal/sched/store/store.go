// Package store implements the persistent tier behind the batch
// cache: scheduling metrics keyed by the canonical job fingerprint,
// one file per fingerprint under a content-addressed directory (Disk),
// so table and bench runs are incremental across processes. The batch
// cache keeps its in-memory metrics LRU itself and composes the tiers
// read-through/write-through: memory, then disk, then compute.
package store

// Stats are a store's observability counters.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses uint64
	// Rejected counts entries found but not trusted — truncated or
	// corrupt files, schema-version mismatches, fingerprint mismatches.
	// Each rejection also counts as a miss.
	Rejected uint64
	// WriteErrors counts Puts that failed to persist after their
	// bounded retries.
	WriteErrors uint64
	// ReadErrors counts Gets that failed with a real I/O error (a plain
	// not-exist miss is not an error).
	ReadErrors uint64
	// Retries counts write attempts re-issued after transient failures.
	Retries uint64
	// Degraded counts operations shed because the circuit breaker had
	// tripped the tier into memory-only mode.
	Degraded uint64
	// Breaker names the tier's circuit state ("closed", "open",
	// "half-open").
	Breaker string
	// BreakerTrips counts transitions into the open state.
	BreakerTrips uint64
	// Entries and Bytes describe the store's current contents.
	Entries int
	Bytes   int64
}

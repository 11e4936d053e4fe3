package batch

import (
	"context"
	"errors"

	"repro/internal/sched"
)

// Stats summarizes a batch run's outcomes: how each cell was served and
// how each failure failed. Exit reports consume it; it is derived
// entirely from the outcome slice, so it composes across runs by
// summing.
type Stats struct {
	// Jobs is the outcome count; Succeeded + Failed == Jobs.
	Jobs      int
	Succeeded int
	Failed    int
	// Quarantined counts failures caused by a recovered backend panic
	// (*sched.PanicError): poisoned cells that failed alone.
	Quarantined int
	// Cancelled counts failures from context cancellation or per-job
	// deadlines — cells cut short, not cells that computed wrongly.
	Cancelled int
	// Serving-tier breakdown of the successes.
	Computed, MemoryHits, FlightShares int
}

// Summarize folds the outcomes of one (or more, by appending) batch
// runs into engine-level stats.
func Summarize(outs []Outcome) Stats {
	var st Stats
	st.Jobs = len(outs)
	for _, o := range outs {
		if o.Err != nil {
			st.Failed++
			var pe *sched.PanicError
			switch {
			case errors.As(o.Err, &pe):
				st.Quarantined++
			case errors.Is(o.Err, context.Canceled) || errors.Is(o.Err, context.DeadlineExceeded):
				st.Cancelled++
			}
			continue
		}
		st.Succeeded++
		switch o.Tier {
		case TierMemory:
			st.MemoryHits++
		case TierFlight:
			st.FlightShares++
		default:
			st.Computed++
		}
	}
	return st
}

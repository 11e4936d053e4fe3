package sched

import "fmt"

// PanicError is a backend panic recovered by the batch engine's
// compute perimeter: the poisoned cell fails alone with a typed,
// diagnosable error instead of killing the whole batch run. Like every
// other compute error it is never cached or shared — single-flight
// waiters and later requests for the same key recompute.
type PanicError struct {
	// Key is the job's cache key (technique + request fingerprint) —
	// enough to identify and replay the poisoned cell.
	Key string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: backend panicked on %s: %v", e.Key, e.Value)
}

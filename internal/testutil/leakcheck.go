// Package testutil holds helpers shared by the repository's test
// suites. It must only be imported from _test files.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// LeakCheck snapshots the goroutine count and registers a cleanup that
// fails the test if the count has not returned to the baseline shortly
// after it finishes — the shared guard the batch and harness suites
// use to prove cancelled, timed-out or panicking work leaves nothing
// running behind it.
//
// The cleanup polls because the runtime needs a moment to retire
// goroutines that have already been waited on. On failure it dumps all
// stacks, so the leaked goroutine is identifiable from the test log.
func LeakCheck(t testing.TB) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		n := runtime.NumGoroutine()
		for n > baseline && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > baseline {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("%d goroutines outlive the test (baseline %d):\n%s", n, baseline, buf)
		}
	})
}

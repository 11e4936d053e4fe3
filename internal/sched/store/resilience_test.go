package store_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sched/store"
	"repro/internal/testutil"
)

// fastDisk opens a store with test-speed retry/breaker settings.
func fastDisk(t *testing.T, dir string, opts store.DiskOptions) *store.Disk {
	t.Helper()
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = time.Millisecond
	}
	if opts.Seed == 0 {
		opts.Seed = 7
	}
	d, err := store.OpenDiskOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPutRetriesTransientFault: one injected transient write error is
// absorbed by the retry loop — the entry lands, nothing counts as a
// write failure, and the breaker never moves.
func TestPutRetriesTransientFault(t *testing.T) {
	testutil.LeakCheck(t)
	d := fastDisk(t, t.TempDir(), store.DiskOptions{Retries: 2})
	faults.Enable(faults.NewPlan(faults.Rule{
		Site: faults.DiskWrite, Every: 1, Limit: 1, Err: errors.New("injected transient io")}))
	t.Cleanup(faults.Disable)

	d.Put("k", metrics(1))
	if _, ok := d.Get("k"); !ok {
		t.Fatal("entry missing after a retried write")
	}
	st := d.Stats()
	if st.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1", st.Retries)
	}
	if st.WriteErrors != 0 {
		t.Errorf("WriteErrors = %d after a recovered write", st.WriteErrors)
	}
	if st.Breaker != "closed" || st.BreakerTrips != 0 {
		t.Errorf("breaker %q/%d trips after a recovered write", st.Breaker, st.BreakerTrips)
	}
}

// TestBreakerTripsDegradesAndRecovers walks the full state machine:
// consecutive ENOSPC-style failures (not retried — retrying cannot
// help) trip the circuit, traffic is shed into degraded memory-only
// mode, a failing half-open probe reopens it, and once the device
// heals a probe closes it again.
func TestBreakerTripsDegradesAndRecovers(t *testing.T) {
	testutil.LeakCheck(t)
	const cooldown = 30 * time.Millisecond
	d := fastDisk(t, t.TempDir(), store.DiskOptions{
		Retries: -1, BreakerThreshold: 2, BreakerCooldown: cooldown})
	// Every write fails with ENOSPC until the third fire; then healthy.
	faults.Enable(faults.NewPlan(faults.Rule{
		Site: faults.DiskWrite, Every: 1, Limit: 3, Err: syscall.ENOSPC}))
	t.Cleanup(faults.Disable)

	d.Put("k1", metrics(1)) // failure 1 of 2
	d.Put("k2", metrics(2)) // failure 2 — trips
	st := d.Stats()
	if st.Breaker != "open" || st.BreakerTrips != 1 {
		t.Fatalf("after %d write errors: breaker %q/%d trips, want open/1", st.WriteErrors, st.Breaker, st.BreakerTrips)
	}
	if st.WriteErrors != 2 || st.Retries != 0 {
		t.Errorf("ENOSPC path: WriteErrors=%d Retries=%d, want 2/0 (no point retrying)", st.WriteErrors, st.Retries)
	}

	// Open circuit: reads and writes are shed, counted as degraded.
	d.Put("k3", metrics(3))
	if _, ok := d.Get("k1"); ok {
		t.Error("degraded store served a read from disk")
	}
	if st = d.Stats(); st.Degraded < 2 {
		t.Errorf("Degraded = %d, want >= 2 (one shed write, one shed read)", st.Degraded)
	}

	// First half-open probe meets the last injected failure: reopen.
	time.Sleep(cooldown + 5*time.Millisecond)
	d.Put("k4", metrics(4))
	if st = d.Stats(); st.Breaker != "open" || st.BreakerTrips != 2 {
		t.Fatalf("failed probe left breaker %q/%d trips, want open/2", st.Breaker, st.BreakerTrips)
	}

	// Faults exhausted: the next probe succeeds and closes the circuit.
	time.Sleep(cooldown + 5*time.Millisecond)
	d.Put("k5", metrics(5))
	if st = d.Stats(); st.Breaker != "closed" {
		t.Fatalf("healed probe left breaker %q, want closed", st.Breaker)
	}
	if _, ok := d.Get("k5"); !ok {
		t.Error("entry written by the closing probe is missing")
	}
}

// TestReadErrorFeedsBreaker: a real read I/O error (not a miss) is a
// counted failure that can trip the circuit; reads flow again after the
// cooldown and a verified hit closes it.
func TestReadErrorFeedsBreaker(t *testing.T) {
	const cooldown = 20 * time.Millisecond
	d := fastDisk(t, t.TempDir(), store.DiskOptions{
		BreakerThreshold: 1, BreakerCooldown: cooldown})
	d.Put("k", metrics(1))

	faults.Enable(faults.NewPlan(faults.Rule{
		Site: faults.DiskRead, Every: 1, Limit: 1, Err: errors.New("injected read io")}))
	t.Cleanup(faults.Disable)

	if _, ok := d.Get("k"); ok {
		t.Fatal("injected read error still served a hit")
	}
	st := d.Stats()
	if st.ReadErrors != 1 {
		t.Errorf("ReadErrors = %d, want 1", st.ReadErrors)
	}
	if st.Breaker != "open" {
		t.Fatalf("breaker %q after read failure at threshold 1, want open", st.Breaker)
	}
	if _, ok := d.Get("k"); ok {
		t.Error("open breaker let a read through inside the cooldown")
	}
	time.Sleep(cooldown + 5*time.Millisecond)
	if _, ok := d.Get("k"); !ok {
		t.Fatal("half-open read did not recover the entry")
	}
	if st = d.Stats(); st.Breaker != "closed" {
		t.Errorf("verified hit left breaker %q, want closed", st.Breaker)
	}
}

// TestCorruptWriteIsRejectedNotBreaker: a torn write "succeeds", the
// read side rejects it as untrusted content, and — content not being a
// device failure — the breaker does not move. A rewrite heals the key.
func TestCorruptWriteIsRejectedNotBreaker(t *testing.T) {
	d := fastDisk(t, t.TempDir(), store.DiskOptions{})
	faults.Enable(faults.NewPlan(faults.Rule{
		Site: faults.DiskWrite, Every: 1, Limit: 1, Corrupt: true}))
	t.Cleanup(faults.Disable)

	d.Put("k", metrics(1))
	if _, ok := d.Get("k"); ok {
		t.Fatal("torn entry passed verification")
	}
	st := d.Stats()
	if st.Rejected != 1 || st.WriteErrors != 0 || st.ReadErrors != 0 {
		t.Errorf("torn write counted wrong: %+v, want 1 rejection and no errors", st)
	}
	if st.Breaker != "closed" || st.BreakerTrips != 0 {
		t.Errorf("content corruption moved the breaker: %q/%d trips", st.Breaker, st.BreakerTrips)
	}
	d.Put("k", metrics(1))
	if got, ok := d.Get("k"); !ok || got != metrics(1) {
		t.Errorf("rewrite did not heal the torn entry: %v %v", got, ok)
	}
}

// TestOpenDiskFaultSite: the open path is injectable too — a fault at
// store.disk.open surfaces as the constructor's error.
func TestOpenDiskFaultSite(t *testing.T) {
	boom := errors.New("injected open failure")
	faults.Enable(faults.NewPlan(faults.Rule{Site: faults.DiskOpen, Every: 1, Limit: 1, Err: boom}))
	t.Cleanup(faults.Disable)
	if _, err := store.OpenDisk(t.TempDir()); !errors.Is(err, boom) {
		t.Fatalf("OpenDisk returned %v, want the injected error", err)
	}
}

// TestClearRefusesForeignDirectory: Clear must not wipe a directory
// that is not shaped like a store — a misspelled -cache-dir pointing at
// real data stays intact.
func TestClearRefusesForeignDirectory(t *testing.T) {
	dir := t.TempDir()
	precious := filepath.Join(dir, "thesis-draft.txt")
	if err := os.WriteFile(precious, []byte("irreplaceable"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = d.Clear()
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("Clear on a foreign directory returned %v, want a refusal", err)
	}
	if _, err := os.Stat(precious); err != nil {
		t.Fatalf("Clear damaged foreign data: %v", err)
	}

	// Foreign content one level down — inside a valid-looking shard —
	// is caught too.
	dir2 := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir2, "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "ab", "notes.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := store.CheckStoreShape(dir2); err == nil {
		t.Fatal("shard with foreign file passed the shape check")
	}
}

// TestClearAcceptsStoreShaped: empty, absent, and genuinely store-shaped
// directories clear cleanly.
func TestClearAcceptsStoreShaped(t *testing.T) {
	if err := store.CheckStoreShape(filepath.Join(t.TempDir(), "never-created")); err != nil {
		t.Errorf("absent dir failed the shape check: %v", err)
	}
	d := fastDisk(t, t.TempDir(), store.DiskOptions{})
	if err := d.Clear(); err != nil {
		t.Fatalf("empty store refused to clear: %v", err)
	}
	for i := 0; i < 4; i++ {
		d.Put(metrics(i).Loop, metrics(i))
	}
	if st := d.Stats(); st.Entries != 4 {
		t.Fatalf("setup wrote %d entries, want 4", st.Entries)
	}
	if err := d.Clear(); err != nil {
		t.Fatalf("store-shaped dir refused to clear: %v", err)
	}
	if st := d.Stats(); st.Entries != 0 {
		t.Errorf("%d entries survived Clear", st.Entries)
	}
	if _, err := os.ReadDir(d.Dir()); err != nil {
		t.Errorf("cleared store root vanished: %v", err)
	}
}

// TestDurableRoundTrip: the fsync path writes entries that read back
// verified, and leaves no temp files behind.
func TestDurableRoundTrip(t *testing.T) {
	d := fastDisk(t, t.TempDir(), store.DiskOptions{Durable: true})
	d.Put("k", metrics(2))
	got, ok := d.Get("k")
	if !ok || got != metrics(2) {
		t.Fatalf("durable round trip drifted: %v %v", got, ok)
	}
	if st := d.Stats(); st.WriteErrors != 0 {
		t.Errorf("durable write counted %d errors", st.WriteErrors)
	}
	filepath.Walk(d.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasPrefix(filepath.Base(path), ".tmp-") {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
}

package store_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/sched/store"
)

func metrics(i int) sched.Metrics {
	return sched.Metrics{
		Technique:     "grip",
		Loop:          fmt.Sprintf("LL%d", i),
		CyclesPerIter: 1.25 * float64(i+1),
		Speedup:       3.2,
		Converged:     true,
		KernelRows:    5,
		Rows:          40 + i,
		Barriers:      i,
	}
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "grip|loop-fp|machine-fp|cfg-fp"
	if _, ok := d.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	want := metrics(3)
	d.Put(key, want)
	got, ok := d.Get(key)
	if !ok {
		t.Fatal("stored entry not found")
	}
	if got != want {
		t.Errorf("round trip drifted: %+v != %+v", got, want)
	}
	st := d.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats %+v, want 1 hit / 1 miss / 1 entry / >0 bytes", st)
	}
	if st.WriteErrors != 0 || st.Rejected != 0 {
		t.Errorf("clean store reports failures: %+v", st)
	}
}

// entryPath finds the single entry file a one-Put store holds.
func entryPath(t *testing.T, dir string) string {
	t.Helper()
	var found string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".json") {
			found = path
		}
		return nil
	})
	if found == "" {
		t.Fatal("no entry file on disk")
	}
	return found
}

// TestDiskUntrustedEntriesFallThrough proves every way an entry can go
// bad reads as a miss — recompute, never an error and never someone
// else's metrics.
func TestDiskUntrustedEntriesFallThrough(t *testing.T) {
	key := "grip|k|m|c"
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"schema-mismatch", func(t *testing.T, path string) {
			rewriteEntry(t, path, func(e map[string]any) {
				e["schema"] = sched.MetricsVersion + 1
			})
		}},
		{"fingerprint-mismatch", func(t *testing.T, path string) {
			rewriteEntry(t, path, func(e map[string]any) {
				e["key"] = "grip|OTHER|m|c"
			})
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			d, err := store.OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			d.Put(key, metrics(1))
			tc.corrupt(t, entryPath(t, d.Dir()))
			if got, ok := d.Get(key); ok {
				t.Fatalf("untrusted entry served: %+v", got)
			}
			st := d.Stats()
			if st.Rejected != 1 {
				t.Errorf("rejected = %d, want 1", st.Rejected)
			}
			// The slot heals on the next Put.
			d.Put(key, metrics(2))
			if got, ok := d.Get(key); !ok || got != metrics(2) {
				t.Errorf("store did not recover after rewrite: %+v %v", got, ok)
			}
		})
	}
}

func rewriteEntry(t *testing.T, path string, mutate func(map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]any
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	mutate(e)
	out, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskConcurrentStoresShareDirectory runs two Disk values over one
// directory from many goroutines — the cross-process sharing the store
// exists for, compressed into one process. Every read must be either a
// miss or a fully consistent entry; the atomic-rename discipline is
// what rules out torn reads.
func TestDiskConcurrentStoresShareDirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 16
	var wg sync.WaitGroup
	for w, s := range []*store.Disk{a, b, a, b} {
		wg.Add(1)
		go func(w int, s *store.Disk) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := 0; i < keys; i++ {
					key := fmt.Sprintf("k%d", i)
					if got, ok := s.Get(key); ok && got != metrics(i) {
						t.Errorf("worker %d read inconsistent entry for %s: %+v", w, key, got)
						return
					}
					s.Put(key, metrics(i))
				}
			}
		}(w, s)
	}
	wg.Wait()
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		gotA, okA := a.Get(key)
		gotB, okB := b.Get(key)
		if !okA || !okB || gotA != metrics(i) || gotB != gotA {
			t.Errorf("stores disagree on %s: %+v/%v vs %+v/%v", key, gotA, okA, gotB, okB)
		}
	}
	if st := a.Stats(); st.Entries != keys {
		t.Errorf("entries = %d, want %d", st.Entries, keys)
	}
	// No temp files may survive the churn: every write either renamed
	// into place or cleaned up after itself.
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasPrefix(filepath.Base(path), ".tmp-") {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
}

func TestDiskClear(t *testing.T) {
	d, err := store.OpenDisk(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d.Put(fmt.Sprintf("k%d", i), metrics(i))
	}
	if st := d.Stats(); st.Entries != 5 {
		t.Fatalf("entries = %d, want 5", st.Entries)
	}
	if err := d.Clear(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("clear left %d entries / %d bytes", st.Entries, st.Bytes)
	}
	if _, ok := d.Get("k0"); ok {
		t.Error("cleared store served an entry")
	}
	// The store stays usable after Clear.
	d.Put("k0", metrics(0))
	if _, ok := d.Get("k0"); !ok {
		t.Error("store unusable after Clear")
	}
}

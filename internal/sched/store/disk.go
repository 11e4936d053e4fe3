package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/sched"
)

// diskEntry is the on-disk format: the schema version and the full
// fingerprint are echoed in every entry so Get can prove an entry is
// the one it asked for. The fingerprint echo matters because file
// names are content-addressed hashes of the key — a hash collision or
// a file written by a different (buggy, future, truncated) writer must
// read as a miss, never as someone else's metrics.
type diskEntry struct {
	Schema  int           `json:"schema"`
	Key     string        `json:"key"`
	Metrics sched.Metrics `json:"metrics"`
}

// DiskOptions tune the persistent tier's durability and fault
// tolerance. The zero value is the historical behavior (no fsync) with
// the default retry/breaker posture.
type DiskOptions struct {
	// Durable fsyncs the temp file before the rename and the shard
	// directory after it, so a committed entry survives a crash or
	// power cut. Command-line -cache-dir runs enable it (see
	// harness.EnableDiskCache); tests hammering a temp dir may not.
	Durable bool
	// Retries is how many times a transient write failure is retried
	// before counting as a failure; negative disables retries.
	// 0 means the default (2).
	Retries int
	// RetryBackoff is the pause before the first retry, doubled each
	// further retry with seeded jitter added. 0 means the default (2ms).
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive-failure run that trips the
	// circuit breaker into degraded memory-only mode. 0 means the
	// default (4).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before
	// half-open probes may test recovery. 0 means the default (2s).
	BreakerCooldown time.Duration
	// Seed seeds the retry jitter; 0 means seeded from the clock.
	// Chaos runs pin it for replayability.
	Seed int64
}

func (o DiskOptions) withDefaults() DiskOptions {
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 4
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	return o
}

// Disk is the persistent metrics tier: one JSON file per fingerprint
// under a content-addressed directory (dir/ab/<sha256(key)>.json).
// Writes are atomic — encode to a temp file in the target directory,
// then rename — so concurrent stores sharing one directory (separate
// processes, or two Disk values in tests) never observe partial
// entries. Get never trusts an entry it cannot verify: read errors,
// malformed JSON, schema-version drift, and fingerprint mismatches all
// report a miss (counted in Stats.Rejected) and the caller recomputes.
//
// The tier has an explicit failure contract. Writes are retried a
// bounded number of times with jittered backoff; a write that exhausts
// its retries (or a real read I/O error) counts toward a circuit
// breaker that trips the store into degraded memory-only mode — reads
// and writes are shed, counted in Stats.Degraded, until the cooldown
// elapses and half-open probes prove the device healthy again. Every
// error class is logged once and counted; nothing is silently dropped.
//
// Disk stores metrics only. Raw scheduled graphs are deliberately not
// persisted: they are megabytes each, pointer-rich, and only
// validation paths want them, which schedule afresh.
type Disk struct {
	dir  string
	opts DiskOptions
	brk  *breaker

	rngMu sync.Mutex
	rng   *rand.Rand

	logMu  sync.Mutex
	logged map[string]bool

	hits, misses, rejected, writeErrs atomic.Uint64
	readErrs, retries, degraded       atomic.Uint64
}

// OpenDisk opens (creating if needed) the on-disk store rooted at dir,
// with default options (not durable — see DiskOptions.Durable).
func OpenDisk(dir string) (*Disk, error) {
	return OpenDiskOptions(dir, DiskOptions{})
}

// OpenDiskOptions opens the on-disk store rooted at dir with explicit
// durability and fault-tolerance options.
func OpenDiskOptions(dir string, opts DiskOptions) (*Disk, error) {
	if err := faults.Check(faults.DiskOpen); err != nil {
		return nil, fmt.Errorf("store: open disk tier: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open disk tier: %w", err)
	}
	opts = opts.withDefaults()
	return &Disk{
		dir:    dir,
		opts:   opts,
		brk:    newBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		rng:    rand.New(rand.NewSource(opts.Seed)),
		logged: make(map[string]bool),
	}, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// path maps a fingerprint to its content-addressed file. Keys are long
// and contain separator characters, so the file name is the hex SHA-256
// of the key, sharded by its first byte to keep directories small.
func (d *Disk) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(d.dir, name[:2], name+".json")
}

// Get reads and verifies the entry under key. Any entry that cannot be
// read, parsed, or proven to belong to (key, current schema) is a miss.
// While the breaker is open the disk is not touched at all — degraded
// memory-only mode — and the lookup is a (counted) miss.
func (d *Disk) Get(key string) (sched.Metrics, bool) {
	if !d.brk.allowRead() {
		d.degraded.Add(1)
		d.misses.Add(1)
		return sched.Metrics{}, false
	}
	data, err := os.ReadFile(d.path(key))
	if ferr := faults.Check(faults.DiskRead); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		d.misses.Add(1)
		// Not-exist is a plain miss; anything else (permission, I/O) is
		// a device failure — still a miss for the caller (the compute
		// path is always available), but counted and fed to the breaker.
		if !errors.Is(err, fs.ErrNotExist) {
			d.readErrs.Add(1)
			d.logOnce("read", err)
			d.brk.failure()
		}
		return sched.Metrics{}, false
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil ||
		e.Schema != sched.MetricsVersion || e.Key != key {
		// Untrusted content, not a sick device: neutral for the breaker.
		d.rejected.Add(1)
		d.misses.Add(1)
		return sched.Metrics{}, false
	}
	d.hits.Add(1)
	d.brk.success()
	return e.Metrics, true
}

// Put persists metrics under key with an atomic rename, retrying
// transient failures with jittered backoff. Failures are recorded in
// Stats (and logged once per error class), never returned: the disk
// tier is an accelerator, and a missing entry merely costs a recompute
// next process. A breaker that has tripped sheds the write entirely
// (degraded memory-only mode) until a half-open probe succeeds.
func (d *Disk) Put(key string, m sched.Metrics) {
	if !d.brk.allowWrite() {
		d.degraded.Add(1)
		return
	}
	if err := d.putRetry(key, m); err != nil {
		d.writeErrs.Add(1)
		d.logOnce("write", err)
		d.brk.failure()
		return
	}
	d.brk.success()
}

// putRetry runs the bounded-retry loop around put. Errors that retrying
// cannot fix (no space, no permission) fail immediately.
func (d *Disk) putRetry(key string, m sched.Metrics) error {
	backoff := d.opts.RetryBackoff
	var err error
	for attempt := 0; ; attempt++ {
		if err = d.put(key, m); err == nil || !transient(err) || attempt >= d.opts.Retries {
			return err
		}
		d.retries.Add(1)
		time.Sleep(backoff + d.jitter(backoff))
		backoff *= 2
	}
}

// transient reports whether retrying the write could plausibly help.
func transient(err error) bool {
	return !errors.Is(err, syscall.ENOSPC) && !errors.Is(err, fs.ErrPermission)
}

// jitter draws a seeded random duration in [0, max).
func (d *Disk) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	d.rngMu.Lock()
	defer d.rngMu.Unlock()
	return time.Duration(d.rng.Int63n(int64(max)))
}

func (d *Disk) put(key string, m sched.Metrics) error {
	path := d.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(diskEntry{
		Schema:  sched.MetricsVersion,
		Key:     key,
		Metrics: m,
	}, "", "  ")
	if err != nil {
		return err
	}
	// The injectable write site: rules here fail the write (feeding the
	// retry/breaker path) or mutilate the payload — a torn write that
	// "succeeds" and must be rejected by read-side verification.
	data, err = faults.Mutate(faults.DiskWrite, append(data, '\n'))
	if err != nil {
		return err
	}
	// Temp file in the destination directory so the rename never
	// crosses a filesystem boundary (rename atomicity).
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if d.opts.Durable {
		// Crash durability: the data must be on stable storage before
		// the rename publishes it, else a power cut can commit a name
		// pointing at garbage — which read-side verification would
		// reject, but the entry (and its compute cost) would be lost.
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d.opts.Durable {
		// The rename itself lives in the directory: fsync the shard dir
		// so the new name survives a crash too. Best-effort — the data
		// is already safe, and some filesystems refuse directory syncs.
		if dirf, err := os.Open(filepath.Dir(path)); err == nil {
			dirf.Sync()
			dirf.Close()
		}
	}
	return nil
}

// logOnce reports a disk failure to the process log exactly once per
// (operation, error class), so a store failing thousands of writes in
// a batch run surfaces the problem without flooding stderr.
func (d *Disk) logOnce(op string, err error) {
	class := op + "/" + errClass(err)
	d.logMu.Lock()
	defer d.logMu.Unlock()
	if d.logged[class] {
		return
	}
	d.logged[class] = true
	log.Printf("store: disk %s failed (%v); further %s errors of this class are counted in Stats, not logged", op, err, op)
}

// errClass buckets errors coarsely: by errno when there is one, by
// dynamic type otherwise.
func errClass(err error) string {
	var errno syscall.Errno
	if errors.As(err, &errno) {
		return errno.Error()
	}
	return fmt.Sprintf("%T", err)
}

// Clear wipes every entry, leaving an empty store rooted at the same
// directory. It refuses to delete a directory that does not look like a
// result store — a misspelled -cache-dir must not wipe whatever path it
// happens to name.
func (d *Disk) Clear() error {
	if err := CheckStoreShape(d.dir); err != nil {
		return fmt.Errorf("store: refusing to clear %s: %w", d.dir, err)
	}
	if err := os.RemoveAll(d.dir); err != nil {
		return err
	}
	return os.MkdirAll(d.dir, 0o755)
}

// shardName matches a two-hex-digit shard directory.
func shardName(name string) bool {
	if len(name) != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		c := name[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// entryName matches a content-addressed entry file (<sha256>.json) or
// an in-flight temp file.
func entryName(name string) bool {
	if strings.HasPrefix(name, ".tmp-") {
		return true
	}
	if !strings.HasSuffix(name, ".json") || len(name) != 64+len(".json") {
		return false
	}
	for i := 0; i < 64; i++ {
		c := name[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// CheckStoreShape verifies that dir is empty, absent, or shaped like a
// result store: only two-hex-char shard directories at the top level,
// holding only <sha256>.json entries (or .tmp-* files mid-write). Any
// foreign file or directory is an error naming the first offender.
func CheckStoreShape(dir string) error {
	top, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, ent := range top {
		if !ent.IsDir() || !shardName(ent.Name()) {
			return fmt.Errorf("unexpected %s (not an ab/<sha256>.json store layout)", ent.Name())
		}
		inner, err := os.ReadDir(filepath.Join(dir, ent.Name()))
		if err != nil {
			return err
		}
		for _, f := range inner {
			if f.IsDir() || !entryName(f.Name()) {
				return fmt.Errorf("unexpected %s (not an ab/<sha256>.json store layout)",
					filepath.Join(ent.Name(), f.Name()))
			}
		}
	}
	return nil
}

// Stats reports the counters plus the store's current footprint
// (entry files and their total bytes), computed by walking the
// directory — cheap at the scales a metrics tier reaches, and always
// true to what is actually on disk — and the breaker's health.
func (d *Disk) Stats() Stats {
	st := Stats{
		Hits:        d.hits.Load(),
		Misses:      d.misses.Load(),
		Rejected:    d.rejected.Load(),
		WriteErrors: d.writeErrs.Load(),
		ReadErrors:  d.readErrs.Load(),
		Retries:     d.retries.Load(),
		Degraded:    d.degraded.Load(),
	}
	st.Breaker, st.BreakerTrips = d.brk.snapshot()
	filepath.WalkDir(d.dir, func(path string, ent fs.DirEntry, err error) error {
		if err != nil || ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			return nil
		}
		if info, err := ent.Info(); err == nil {
			st.Entries++
			st.Bytes += info.Size()
		}
		return nil
	})
	return st
}

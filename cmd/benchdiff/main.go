// Command benchdiff compares two bench reports written by
// `table1 -bench-out` (BENCH_table1.json snapshots) and flags per-cell
// wall-time regressions, so the bench trajectory can gate CI: it exits
// nonzero when any matched cell slowed down by more than -threshold, or
// when a cell's speedup value drifted (the cells are deterministic, so
// a drift is a correctness change, not noise).
//
// Cells are matched by (loop, fus, technique, config). Cache-hit cells
// and cells faster than -min-ms in the old report are skipped for the
// wall-time check — they measure the cache, not the scheduler. Cells
// present in only one report are listed but never fatal: new kernels
// and new techniques are growth, not regressions. A comparison that
// matched no cell at all against a non-empty baseline is fatal, though:
// it checked nothing, so it must not pass.
//
// With -gobench the two arguments are `go test -bench` output files
// instead: benchmarks are matched by name (the -cpus suffix stripped),
// ns/op compared against -threshold, and allocs/op compared exactly —
// an allocation-count increase is an algorithmic regression (the
// zero-alloc guards are the first line of defence; this gates the
// trajectory), while ns/op gets the same generous noise threshold the
// wall-time cells use.
//
// Usage:
//
//	go run ./cmd/benchdiff [-threshold 1.5] [-min-ms 5] [-no-speedups] old.json new.json
//	go run ./cmd/benchdiff -gobench [-threshold 4] old.txt new.txt
//	go run ./cmd/benchdiff -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/sched/batch"
)

func main() {
	threshold := flag.Float64("threshold", 1.5,
		"flag a cell whose new wall time exceeds old*threshold")
	minMS := flag.Float64("min-ms", 5,
		"ignore the wall-time check for cells under this many ms in the old report")
	noSpeedups := flag.Bool("no-speedups", false,
		"skip the speedup-drift check (wall times only)")
	gobench := flag.Bool("gobench", false,
		"compare two `go test -bench` output files (ns/op + allocs/op) instead of bench reports")
	selfcheck := flag.Bool("selfcheck", false,
		"run the comparison logic against built-in fixtures and exit (CI bit-rot guard)")
	flag.Parse()

	if *selfcheck {
		os.Exit(runSelfcheck(os.Stdout))
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] old.json new.json  (or -gobench old.txt new.txt, or -selfcheck)")
		os.Exit(2)
	}
	if *gobench {
		os.Exit(runGobenchDiff(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold))
	}
	oldRep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	newRep, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	report := compare(oldRep, newRep, *threshold, *minMS, !*noSpeedups)
	report.print(os.Stdout, flag.Arg(0), flag.Arg(1))
	if len(report.Regressions) > 0 {
		os.Exit(1)
	}
}

func load(path string) (*batch.BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep batch.BenchReport
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// cellKey identifies a cell across reports. Config is the job's
// configuration fingerprint (empty = paper default), so sweep cells of
// the same (loop, fus, technique) never collide across factors.
type cellKey struct {
	Loop      string
	FUs       int
	Technique string
	Config    string
}

func (k cellKey) String() string {
	s := fmt.Sprintf("%s @%dFU %s", k.Loop, k.FUs, k.Technique)
	if k.Config != "" {
		s += " [" + k.Config + "]"
	}
	return s
}

// diffReport is the outcome of one comparison.
type diffReport struct {
	Compared    int
	Skipped     int // cache hits and sub-min-ms cells
	Regressions []string
	OnlyOld     []string
	OnlyNew     []string
}

// compare matches cells by key and collects regressions. When a key
// occurs several times in one report (a sweep rerunning a cell), the
// non-cache-hit occurrence wins; later duplicates are ignored.
func compare(oldRep, newRep *batch.BenchReport, threshold, minMS float64, checkSpeedups bool) *diffReport {
	index := func(rep *batch.BenchReport) map[cellKey]batch.BenchCell {
		m := make(map[cellKey]batch.BenchCell, len(rep.Cells))
		for _, c := range rep.Cells {
			k := cellKey{c.Loop, c.FUs, c.Technique, c.Config}
			if prev, ok := m[k]; ok && !prev.CacheHit {
				continue
			}
			m[k] = c
		}
		return m
	}
	oldCells, newCells := index(oldRep), index(newRep)

	rep := &diffReport{}
	var keys []cellKey
	for k := range oldCells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		oc := oldCells[k]
		nc, ok := newCells[k]
		if !ok {
			rep.OnlyOld = append(rep.OnlyOld, k.String())
			continue
		}
		rep.Compared++
		if checkSpeedups && oc.Error == "" && nc.Error == "" {
			if diff := oc.Speedup - nc.Speedup; diff > 1e-6 || diff < -1e-6 {
				rep.Regressions = append(rep.Regressions,
					fmt.Sprintf("%s: speedup drifted %.3f -> %.3f", k, oc.Speedup, nc.Speedup))
			}
		}
		if nc.Error != "" && oc.Error == "" {
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s: newly failing: %s", k, nc.Error))
			continue
		}
		if oc.CacheHit || nc.CacheHit || oc.WallMS < minMS {
			rep.Skipped++
			continue
		}
		if nc.WallMS > oc.WallMS*threshold {
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s: wall %.1fms -> %.1fms (%.2fx > %.2fx threshold)",
					k, oc.WallMS, nc.WallMS, nc.WallMS/oc.WallMS, threshold))
		}
	}
	for k := range newCells {
		if _, ok := oldCells[k]; !ok {
			rep.OnlyNew = append(rep.OnlyNew, k.String())
		}
	}
	sort.Strings(rep.OnlyNew)
	if len(oldCells) > 0 && rep.Compared == 0 {
		rep.Regressions = append(rep.Regressions,
			fmt.Sprintf("no cells compared: none of the baseline's %d cells is in the new report", len(oldCells)))
	}
	return rep
}

func (r *diffReport) print(w *os.File, oldPath, newPath string) {
	fmt.Fprintf(w, "benchdiff %s -> %s: %d cells compared", oldPath, newPath, r.Compared)
	if r.Skipped > 0 {
		fmt.Fprintf(w, ", %d skipped (cache hits / below min-ms)", r.Skipped)
	}
	fmt.Fprintln(w)
	for _, s := range r.OnlyOld {
		fmt.Fprintf(w, "  missing in new report: %s\n", s)
	}
	for _, s := range r.OnlyNew {
		fmt.Fprintf(w, "  new cell: %s\n", s)
	}
	if len(r.Regressions) == 0 {
		fmt.Fprintln(w, "  no regressions")
		return
	}
	for _, s := range r.Regressions {
		fmt.Fprintf(w, "  REGRESSION %s\n", s)
	}
}

// runSelfcheck exercises the comparison logic on synthetic reports so a
// CI step can prove the tool still detects (and still ignores) what it
// should, without needing two real bench files.
func runSelfcheck(w *os.File) int {
	base := &batch.BenchReport{Cells: []batch.BenchCell{
		{Loop: "LL1", FUs: 2, Technique: "grip", Speedup: 1.833, WallMS: 120},
		{Loop: "LL1", FUs: 2, Technique: "post", Speedup: 1.833, WallMS: 80},
		{Loop: "LL2", FUs: 4, Technique: "grip", Speedup: 2.5, WallMS: 2},
		{Loop: "LL3", FUs: 8, Technique: "grip", Speedup: 7.9, WallMS: 50, CacheHit: true},
		// A sweep pair: same (loop, fus, technique), distinct configs —
		// the config must key the cells apart.
		{Loop: "LL1", FUs: 2, Technique: "grip", Config: "cfg|u=24", Speedup: 1.9, WallMS: 60},
	}}
	same := &batch.BenchReport{Cells: []batch.BenchCell{
		{Loop: "LL1", FUs: 2, Technique: "grip", Speedup: 1.833, WallMS: 130},
		{Loop: "LL1", FUs: 2, Technique: "post", Speedup: 1.833, WallMS: 75},
		{Loop: "LL2", FUs: 4, Technique: "grip", Speedup: 2.5, WallMS: 200}, // under min-ms in base: skipped
		{Loop: "LL3", FUs: 8, Technique: "grip", Speedup: 7.9, WallMS: 50, CacheHit: true},
		{Loop: "LL4", FUs: 2, Technique: "modulo", Speedup: 1.0, WallMS: 1}, // new cell: not a regression
		{Loop: "LL1", FUs: 2, Technique: "grip", Config: "cfg|u=24", Speedup: 1.9, WallMS: 65},
	}}
	bad := &batch.BenchReport{Cells: []batch.BenchCell{
		{Loop: "LL1", FUs: 2, Technique: "grip", Speedup: 1.833, WallMS: 400}, // 3.3x: wall regression
		{Loop: "LL1", FUs: 2, Technique: "post", Speedup: 1.900, WallMS: 80},  // speedup drift
		{Loop: "LL2", FUs: 4, Technique: "grip", Speedup: 2.5, WallMS: 3},
		{Loop: "LL3", FUs: 8, Technique: "grip", Speedup: 7.9, WallMS: 50, CacheHit: true},
	}}

	clean := compare(base, same, 1.5, 5, true)
	if len(clean.Regressions) != 0 {
		fmt.Fprintf(w, "selfcheck FAILED: clean diff reported regressions: %v\n", clean.Regressions)
		return 1
	}
	if clean.Compared != 5 {
		fmt.Fprintf(w, "selfcheck FAILED: compared %d cells, want 5 (config cells must not collide)\n", clean.Compared)
		return 1
	}
	dirty := compare(base, bad, 1.5, 5, true)
	if len(dirty.Regressions) != 2 {
		fmt.Fprintf(w, "selfcheck FAILED: want 2 regressions (wall + speedup), got %v\n", dirty.Regressions)
		return 1
	}
	// A report whose cells all carry a config the baseline lacks
	// matches nothing: that must fail, not print "no regressions".
	disjoint := &batch.BenchReport{Cells: []batch.BenchCell{
		{Loop: "LL1", FUs: 2, Technique: "grip", Config: "cfg|u=48", Speedup: 1.833, WallMS: 120},
	}}
	if empty := compare(base, disjoint, 1.5, 5, true); empty.Compared != 0 || len(empty.Regressions) != 1 {
		fmt.Fprintf(w, "selfcheck FAILED: disjoint diff compared %d cells with regressions %v, want 0 and 1\n",
			empty.Compared, empty.Regressions)
		return 1
	}
	if fresh := compare(&batch.BenchReport{}, same, 1.5, 5, true); len(fresh.Regressions) != 0 {
		fmt.Fprintf(w, "selfcheck FAILED: an empty baseline reported regressions: %v\n", fresh.Regressions)
		return 1
	}
	if code := gobenchSelfcheck(w); code != 0 {
		return code
	}
	fmt.Fprintf(w, "selfcheck ok: %d cells compared clean, %d regressions detected in dirty fixture\n",
		clean.Compared, len(dirty.Regressions))
	return 0
}

// gobenchSelfcheck proves the -gobench parser and comparison still
// detect (and still ignore) what they should.
func gobenchSelfcheck(w *os.File) int {
	const oldTxt = `goos: linux
BenchmarkGaplessMove-8      7000000	       150.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkCondFourSearch-8 300000000	         3.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkMigrationStep-8        100	   9000000 ns/op	  500000 B/op	    2000 allocs/op
PASS
`
	const sameTxt = `BenchmarkGaplessMove-16     7000000	       170.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkCondFourSearch-16 300000000	         4.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkMigrationStep-16       100	  10000000 ns/op	  500000 B/op	    2000 allocs/op
BenchmarkNewThing-16           1000	      1000 ns/op	       0 B/op	       0 allocs/op
`
	const badTxt = `BenchmarkGaplessMove-8       100000	     40000.0 ns/op	     160 B/op	       3 allocs/op
BenchmarkCondFourSearch-8 300000000	         3.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkMigrationStep-8        100	   9500000 ns/op	  500000 B/op	    2000 allocs/op
`
	parse := func(s string) map[string]gobenchResult {
		m, err := parseGobenchFrom(strings.NewReader(s))
		if err != nil {
			panic(err)
		}
		return m
	}
	clean := compareGobench(parse(oldTxt), parse(sameTxt), 4)
	if len(clean.Regressions) != 0 || clean.Compared != 3 || len(clean.OnlyNew) != 1 {
		fmt.Fprintf(w, "selfcheck FAILED: clean gobench diff: compared %d, regressions %v, new %v\n",
			clean.Compared, clean.Regressions, clean.OnlyNew)
		return 1
	}
	dirty := compareGobench(parse(oldTxt), parse(badTxt), 4)
	if len(dirty.Regressions) != 2 { // ns/op blowup + allocs/op growth on the same benchmark
		fmt.Fprintf(w, "selfcheck FAILED: dirty gobench diff: want 2 regressions, got %v\n", dirty.Regressions)
		return 1
	}
	return 0
}

// Command benchdiff compares two bench reports written by
// `table1 -bench-out` (BENCH_table1.json snapshots) and flags per-cell
// wall-time regressions, so the bench trajectory can gate CI: it exits
// nonzero when any matched cell slowed down by more than -threshold, or
// when a cell's speedup value drifted (the cells are deterministic, so
// a drift is a correctness change, not noise).
//
// Cells are matched by (loop, fus, technique, config). Cells faster
// than -min-ms in the old report are skipped for the wall-time check:
// they are too short to time reliably. Cells present in only one
// report are listed but never fatal: new kernels and new techniques are
// growth, not regressions. A comparison that matched no cell at all
// against a non-empty baseline is fatal, though: it checked nothing, so
// it must not pass.
//
// With -gobench the two arguments are `go test -bench` output files
// instead: benchmarks are matched by name (the -cpus suffix stripped),
// ns/op compared against -threshold, allocs/op compared exactly — an
// allocation-count increase is an algorithmic regression (the
// zero-alloc guards are the first line of defence; this gates the
// trajectory) — and B/op allowed to grow by at most 2%, the bound the
// benchmark's alloc_mb metric carries. ns/op gets the same generous
// noise threshold the wall-time cells use.
//
// Usage:
//
//	go run ./cmd/benchdiff [-threshold 1.5] [-min-ms 5] [-no-speedups] old.json new.json
//	go run ./cmd/benchdiff -gobench [-threshold 4] old.txt new.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

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
		"compare two `go test -bench` output files (ns/op, allocs/op, B/op) instead of bench reports")
	flag.Parse()

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] old.json new.json  (or -gobench old.txt new.txt)")
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
	Skipped     int // sub-min-ms cells
	Regressions []string
	OnlyOld     []string
	OnlyNew     []string
}

// compare matches cells by key and collects regressions. When a key
// occurs several times in one report (a sweep rerunning a cell), the
// first occurrence wins; later duplicates are ignored.
func compare(oldRep, newRep *batch.BenchReport, threshold, minMS float64, checkSpeedups bool) *diffReport {
	index := func(rep *batch.BenchReport) map[cellKey]batch.BenchCell {
		m := make(map[cellKey]batch.BenchCell, len(rep.Cells))
		for _, c := range rep.Cells {
			k := cellKey{c.Loop, c.FUs, c.Technique, c.Config}
			if _, ok := m[k]; !ok {
				m[k] = c
			}
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
		if oc.WallMS < minMS {
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
		fmt.Fprintf(w, ", %d skipped (below min-ms)", r.Skipped)
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

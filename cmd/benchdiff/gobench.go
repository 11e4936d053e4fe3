package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// gobenchResult is one parsed `go test -bench` line.
type gobenchResult struct {
	NsPerOp     float64
	AllocsPerOp float64
	HasAllocs   bool
	BytesPerOp  float64
	HasBytes    bool
}

// bytesTolerance is the B/op growth -gobench forgives: the same 2%
// bound the benchmark applies to its alloc_mb metric. B/op is nearly
// deterministic (amortized setup can move it by a byte between runs),
// so anything past the bound is a code change.
const bytesTolerance = 0.02

// parseGobench reads `go test -bench -benchmem` output, keyed by
// benchmark name with the GOMAXPROCS suffix stripped (Benchmark​X-8 and
// BenchmarkX-16 are the same benchmark on different runners). When a
// name repeats (-count runs), the fastest ns/op wins — the usual
// min-of-runs noise reduction.
func parseGobench(path string) (map[string]gobenchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseGobenchFrom(f)
}

func parseGobenchFrom(f io.Reader) (map[string]gobenchResult, error) {
	out := map[string]gobenchResult{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		r := gobenchResult{}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = val
				ok = true
			case "allocs/op":
				r.AllocsPerOp = val
				r.HasAllocs = true
			case "B/op":
				r.BytesPerOp = val
				r.HasBytes = true
			}
		}
		if !ok {
			continue
		}
		if prev, dup := out[name]; dup && prev.NsPerOp <= r.NsPerOp {
			continue
		}
		out[name] = r
	}
	return out, sc.Err()
}

// compareGobench matches benchmarks by name and collects regressions:
// ns/op beyond old*threshold, any allocs/op increase (allocation
// counts are deterministic, so an increase is a code change, not
// noise), or B/op growth beyond bytesTolerance. Benchmarks present in
// only one file are listed, never fatal.
func compareGobench(oldB, newB map[string]gobenchResult, threshold float64) *diffReport {
	rep := &diffReport{}
	var names []string
	for name := range oldB {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		oc := oldB[name]
		nc, ok := newB[name]
		if !ok {
			rep.OnlyOld = append(rep.OnlyOld, name)
			continue
		}
		rep.Compared++
		if nc.NsPerOp > oc.NsPerOp*threshold {
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s: %.1fns/op -> %.1fns/op (%.2fx > %.2fx threshold)",
					name, oc.NsPerOp, nc.NsPerOp, nc.NsPerOp/oc.NsPerOp, threshold))
		}
		if oc.HasAllocs && nc.HasAllocs && nc.AllocsPerOp > oc.AllocsPerOp {
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s: allocs/op grew %.0f -> %.0f", name, oc.AllocsPerOp, nc.AllocsPerOp))
		}
		if oc.HasBytes && nc.HasBytes && nc.BytesPerOp > oc.BytesPerOp*(1+bytesTolerance) {
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s: B/op grew %.0f -> %.0f (more than %.0f%%)",
					name, oc.BytesPerOp, nc.BytesPerOp, 100*bytesTolerance))
		}
	}
	for name := range newB {
		if _, ok := oldB[name]; !ok {
			rep.OnlyNew = append(rep.OnlyNew, name)
		}
	}
	sort.Strings(rep.OnlyNew)
	return rep
}

func runGobenchDiff(w *os.File, oldPath, newPath string, threshold float64) int {
	oldB, err := parseGobench(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	newB, err := parseGobench(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(oldB) == 0 {
		fmt.Fprintf(os.Stderr, "%s: no benchmark lines found\n", oldPath)
		return 2
	}
	if len(newB) == 0 {
		// An empty new report means the benchmarks did not run (build
		// breakage, panic) — that must fail the gate, not skip it.
		fmt.Fprintf(os.Stderr, "%s: no benchmark lines found\n", newPath)
		return 2
	}
	rep := compareGobench(oldB, newB, threshold)
	rep.print(w, oldPath, newPath)
	if len(rep.Regressions) > 0 {
		return 1
	}
	return 0
}

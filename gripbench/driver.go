package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched/batch"
)

const (
	// minRounds is the fewest timed rounds a run takes, however short
	// its --seconds; maxRounds bounds a run of very short rounds.
	minRounds = 3
	maxRounds = 60
	// childTimeout bounds one spawned process, well inside the three
	// minutes a whole run may take.
	childTimeout = 150 * time.Second
)

// result is the line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func driverMain(args []string) int {
	fs := flag.NewFlagSet("gripbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: table1, grip-seeded or fuzz-check")
	// Every seed gives the same inputs: the workloads' loops are fixed
	// (see README.md for why they do not follow the seed).
	fs.Int64("seed", 0, "run seed; the workloads' inputs do not depend on it")
	seconds := fs.Int("seconds", 20, "time the cold rounds run for")
	trace := fs.Int("trace", 0, "1 adds the traced run and prints the per-layer metrics instead")
	baseline := fs.String("baseline", "BENCH_table1.json", "committed table the table1 cells must match")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("need --seconds of at least 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gripbench: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gripbench: %v\n", err)
		return 1
	}
	d := &driver{w: w, exe: exe, traceDir: *traceDir, fails: map[string]string{}}
	res, err := d.run(time.Duration(*seconds)*time.Second, *trace == 1, *baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gripbench: %s: %v\n", w.name, err)
		return 1
	}
	return emit(res)
}

// driver runs one workload's processes and judges what they report.
type driver struct {
	w        workload
	exe      string
	traceDir string
	fails    map[string]string // failing item -> first reason
}

func (d *driver) run(budget time.Duration, traced bool, baseline string) (*result, error) {
	rounds, err := d.rounds(budget)
	if err != nil {
		return nil, err
	}
	// cells are the program's own metrics, the reference the traced
	// replica must reproduce: every round must report the same ones.
	cells := rounds[0].Cells
	for i, r := range rounds {
		d.note(r.Failures...)
		if i > 0 {
			d.note(diffCells(fmt.Sprintf("round %d", i+1), cells, r.Cells)...)
		}
	}
	if d.w.name == "table1" {
		fs, err := matchBaseline(baseline, cells)
		if err != nil {
			return nil, err
		}
		d.note(fs...)
	}
	if d.w.name != "grip-seeded" {
		var c checkReport
		if err := d.spawn("check", &c); err != nil {
			return nil, err
		}
		d.note(c.Failures...)
		if d.w.name == "fuzz-check" {
			cells = c.Cells
		}
	}

	items := len(rounds[0].Items)
	defs, values := endToEnd, endToEndValues(d.w, rounds, cells)
	values["ok_ratio"] = float64(items-len(d.fails)) / float64(items)
	if traced {
		defs = perLayer
		if values, err = d.traced(rounds, cells); err != nil {
			return nil, err
		}
	}
	return &result{
		Correct:   len(d.fails) == 0,
		Attempted: items,
		Failed:    len(d.fails),
		Metrics:   report(defs, values),
	}, nil
}

// note records failed items, once each; a fuzz-check cell's item is its
// loop.
func (d *driver) note(fs ...failure) {
	for _, f := range fs {
		item := f.Item
		if d.w.name == "fuzz-check" {
			item, _, _ = strings.Cut(item, "@")
		}
		if _, seen := d.fails[item]; !seen {
			d.fails[item] = f.What
			fmt.Fprintf(os.Stderr, "gripbench: FAIL %s: %s\n", f.Item, f.What)
		}
	}
}

// rounds spawns cold rounds one after another until the budget is spent.
func (d *driver) rounds(budget time.Duration) ([]*roundReport, error) {
	start := time.Now()
	var rounds []*roundReport
	for len(rounds) < minRounds || (time.Since(start) < budget && len(rounds) < maxRounds) {
		n := len(rounds) + 1
		r := &roundReport{}
		if err := d.spawn("round", r); err != nil {
			return nil, fmt.Errorf("round %d: %w", n, err)
		}
		if r.CacheHits != 0 {
			return nil, fmt.Errorf("round %d: %d cache hits; a timed round must compute every item", n, r.CacheHits)
		}
		if len(r.Items) == 0 || (n > 1 && !slices.Equal(r.Items, rounds[0].Items)) {
			return nil, fmt.Errorf("round %d ran other items than round 1", n)
		}
		rounds = append(rounds, r)
	}
	walls := sorted(perRound(rounds, func(r *roundReport) float64 { return float64(r.WallNS) / 1e9 }))
	fmt.Fprintf(os.Stderr, "gripbench: %s: %d cold rounds in %.1fs, pass wall %.3f s fastest, %.3f s median, %.3f s slowest\n",
		d.w.name, len(rounds), time.Since(start).Seconds(), walls[0], median(walls), walls[len(walls)-1])
	return rounds, nil
}

// spawn runs this binary in a child mode, waits for it to exit, and
// decodes the JSON it printed.
func (d *driver) spawn(mode string, into any) error {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, d.exe, mode, "--workload", d.w.name, "--trace-dir", d.traceDir)
	cmd.Stderr = os.Stderr
	cmd.Args = append(cmd.Args, "--start-ns", strconv.FormatInt(time.Now().UnixNano(), 10))
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s process: %w", mode, err)
	}
	if err := json.Unmarshal(out, into); err != nil {
		return fmt.Errorf("%s process: %w", mode, err)
	}
	return nil
}

// endToEndValues computes the end-to-end metrics, each a median over the
// run's rounds: the host's speed drifts both ways, in spells of seconds
// to minutes, so the fastest round reports whichever quiet spell a run
// happened to catch while the median round reports its typical speed.
// Item metrics use each item's median round.
func endToEndValues(w workload, rounds []*roundReport, cells []cell) map[string]float64 {
	items := sorted(itemMedian(rounds))
	var speedups []float64
	for _, c := range cells {
		if c.Err == "" {
			speedups = append(speedups, c.M.Speedup)
		}
	}
	return map[string]float64{
		"wall_s":       median(perRound(rounds, func(r *roundReport) float64 { return float64(r.WallNS) })) / 1e9,
		"cpu_s":        median(perRound(rounds, func(r *roundReport) float64 { return float64(r.CPUNS) })) / 1e9,
		"item_ms_p50":  median(items) / 1e6,
		"item_ms_tail": items[quantileIndex(len(items), w.tailQ)] / 1e6,
		"alloc_mb":     median(perRound(rounds, func(r *roundReport) float64 { return float64(r.AllocBytes) })) / 1e6,
		"speedup_gm":   geomean(speedups),
		"setup_s":      median(perRound(rounds, func(r *roundReport) float64 { return float64(r.SetupNS) })) / 1e9,
	}
}

func perRound(rounds []*roundReport, f func(*roundReport) float64) []float64 {
	vs := make([]float64, len(rounds))
	for i, r := range rounds {
		vs[i] = f(r)
	}
	return vs
}

// itemMedian is each item's median time over the rounds, in ns.
func itemMedian(rounds []*roundReport) []float64 {
	meds := make([]float64, len(rounds[0].ItemNS))
	for i := range meds {
		meds[i] = median(perRound(rounds, func(r *roundReport) float64 { return float64(r.ItemNS[i]) }))
	}
	return meds
}

// medianRound is the round with the median pass wall time, the slower
// of the middle two for an even count.
func medianRound(rounds []*roundReport) *roundReport {
	byWall := slices.Clone(rounds)
	slices.SortFunc(byWall, func(a, b *roundReport) int { return cmp.Compare(a.WallNS, b.WallNS) })
	return byWall[len(byWall)/2]
}

// diffCells reports every cell of got that differs from want.
func diffCells(from string, want, got []cell) []failure {
	if len(got) != len(want) {
		return []failure{{"cells", fmt.Sprintf("%s reports %d cells, want %d", from, len(got), len(want))}}
	}
	var fs []failure
	for i := range want {
		if got[i] != want[i] {
			fs = append(fs, failure{want[i].ID, fmt.Sprintf("%s reports %+v, want %+v", from, got[i], want[i])})
		}
	}
	return fs
}

// matchBaseline holds table1's cells to the committed table: every
// speedup and convergence flag, bit for bit.
func matchBaseline(path string, cells []cell) ([]failure, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("table1 baseline: %w", err)
	}
	var base batch.BenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("table1 baseline %s: %w", path, err)
	}
	want := map[string]batch.BenchCell{}
	for _, b := range base.Cells {
		if b.Config == "" {
			want[fmt.Sprintf("%s@%d/%s", b.Loop, b.FUs, b.Technique)] = b
		}
	}
	if len(want) != len(cells) {
		return nil, fmt.Errorf("table1 baseline %s has %d paper-default cells, the run %d", path, len(want), len(cells))
	}
	var fs []failure
	for _, c := range cells {
		b, ok := want[c.ID]
		switch {
		case !ok:
			fs = append(fs, failure{c.ID, "not in " + path})
		case c.M.Speedup != b.Speedup || c.M.Converged != b.Converged:
			fs = append(fs, failure{c.ID, fmt.Sprintf("speedup %v converged %v; %s has %v, %v",
				c.M.Speedup, c.M.Converged, path, b.Speedup, b.Converged)})
		}
	}
	return fs, nil
}

// traced spawns the traced process, holds its replay to the program's
// own metrics, and completes the per-layer metrics from the rounds. A
// replay that does not reproduce every cell fails the run instead of
// reporting numbers about some other program.
func (d *driver) traced(rounds []*roundReport, cells []cell) (map[string]float64, error) {
	var t tracedReport
	if err := d.spawn("traced", &t); err != nil {
		return nil, err
	}
	agree := func(from string, got []cell) error {
		if fs := diffCells(from, cells, got); len(fs) > 0 {
			return fmt.Errorf("the traced run does not reproduce the program: %d cells differ, first %s: %s",
				len(fs), fs[0].Item, fs[0].What)
		}
		return nil
	}
	if err := agree("the layer replay", t.Cells); err != nil {
		return nil, err
	}
	d.note(t.Failures...)
	v := t.Layer
	if d.w.name == "fuzz-check" {
		// The pool runs inside CheckLoop; the traced run drove the same
		// jobs through batch.Run itself and measured it there.
		if err := agree("the traced batch.Run", t.Registry); err != nil {
			return nil, err
		}
	} else {
		mid := medianRound(rounds)
		pool := float64(d.w.workers) * float64(mid.BatchNS)
		v["batch.jobs"] = float64(mid.Jobs)
		v["batch.overhead_ms"] = (pool - float64(mid.JobNS)) / 1e6
		v["batch.busy_frac"] = float64(mid.JobNS) / pool
	}
	v["gc.cycles"] = median(perRound(rounds, func(r *roundReport) float64 { return float64(r.GCCycles) }))
	v["gc.cpu_s"] = median(perRound(rounds, func(r *roundReport) float64 { return r.GCCPUSec }))
	v["heap.objects_m"] = median(perRound(rounds, func(r *roundReport) float64 { return float64(r.Mallocs) })) / 1e6
	var tracedNS, untracedNS float64
	for _, ns := range t.ItemNS {
		tracedNS += float64(ns)
	}
	for _, ns := range itemMedian(rounds) {
		untracedNS += ns
	}
	v["trace.overhead_pct"] = 100 * (tracedNS/untracedNS - 1)
	return v, nil
}

package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sched/batch"
	"repro/internal/testutil"
)

// TestTable1ShapeProperties reproduces Table 1 and asserts the paper's
// qualitative claims: GRiP converges everywhere, is never materially
// worse than POST, is essentially optimal (against the analytic bound)
// at 2 and 4 functional units, and speedups grow with the machine. The
// whole table, POST's barrier counts included, must also equal the
// golden testdata/table1.csv byte for byte (`table1 -csv` output):
// scheduler work skipped for speed must leave every cell unchanged.
func TestTable1ShapeProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("full table in -short mode")
	}
	tbl, _, err := RunTable1Ctx(context.Background(), livermore.All(), []int{2, 4, 8}, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	gi, pi := slices.Index(tbl.Techniques, "grip"), slices.Index(tbl.Techniques, "post")
	if gi < 0 || pi < 0 {
		t.Fatalf("Table 1 misses grip/post columns: %v", tbl.Techniques)
	}
	losses := 0
	for li, name := range tbl.Names {
		prev := 0.0
		for fi, f := range tbl.FUs {
			c := tbl.Cells[li][fi]
			grip, post := c.Stats[gi], c.Stats[pi]
			if !grip.Converged {
				t.Errorf("%s @%dFU: GRiP did not converge", name, f)
			}
			// Paper: "In all cases GRiP performs no worse than POST."
			// Our reconstruction of POST (the paper gives one sentence
			// of description) occasionally edges out our GRiP; allow a
			// few such cells but never a large loss, and require the
			// aggregate claim below. The golden table has one such
			// cell, LL8 at 8 FUs: GRiP 6.500 against POST 8.667. Its
			// cause is still open (ROADMAP.md item 9).
			if grip.Speedup < post.Speedup*0.99 {
				losses++
				if grip.Speedup < post.Speedup*0.70 {
					t.Errorf("%s @%dFU: GRiP %.2f far below POST %.2f", name, f, grip.Speedup, post.Speedup)
				}
			}
			if grip.Speedup < prev-0.01 {
				t.Errorf("%s: speedup decreased from %.2f to %.2f at %dFU", name, prev, grip.Speedup, f)
			}
			prev = grip.Speedup
			// Near-optimality at 2 and 4 FUs, against the analytic
			// pre-optimization bound (redundancy removal can exceed it).
			if f <= 4 && grip.Speedup < 0.85*c.Bound {
				t.Errorf("%s @%dFU: GRiP %.2f well below bound %.2f", name, f, grip.Speedup, c.Bound)
			}
		}
	}
	if losses > 4 {
		t.Errorf("GRiP lost to POST in %d cells; paper says never", losses)
	}
	for fi := range tbl.FUs {
		if tbl.MeanRow[fi].Stats[gi].Speedup < tbl.MeanRow[fi].Stats[pi].Speedup-0.01 {
			t.Errorf("mean @%dFU: GRiP %.2f < POST %.2f", tbl.FUs[fi],
				tbl.MeanRow[fi].Stats[gi].Speedup, tbl.MeanRow[fi].Stats[pi].Speedup)
		}
	}
	out := tbl.Format()
	for _, want := range []string{"LL1", "LL14", "Mean", "WHM", "GRiP", "POST"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, "LL3,4,grip,") || !strings.Contains(csv, "LL3,4,post,") {
		t.Errorf("CSV missing expected rows")
	}
	golden, err := os.ReadFile("testdata/table1.csv")
	if err != nil {
		t.Fatal(err)
	}
	if csv != string(golden) {
		gl, cl := strings.Split(string(golden), "\n"), strings.Split(csv, "\n")
		for i := 0; i < len(gl) || i < len(cl); i++ {
			var g, c string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(cl) {
				c = cl[i]
			}
			if g != c {
				t.Errorf("table differs from testdata/table1.csv at line %d: got %q, want %q", i+1, c, g)
				break
			}
		}
	}
}

// TestParallelTableBitIdentical runs a Table 1 slice with four workers
// and then sequentially and requires every cell to be bit-identical —
// the acceptance criterion for moving the harness onto the batch
// engine. Each run has its own phase-1 memo, so both compute POST's
// phase 1, the parallel one on concurrent workers.
func TestParallelTableBitIdentical(t *testing.T) {
	kernels := []*livermore.Kernel{livermore.ByName("LL1"), livermore.ByName("LL3"), livermore.ByName("LL5")}
	fus := []int{2, 4}
	par, _, err := RunTable1Ctx(context.Background(), kernels, fus, batch.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := RunTable1Ctx(context.Background(), kernels, fus, batch.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for li := range seq.Cells {
		for fi := range seq.Cells[li] {
			if !reflect.DeepEqual(seq.Cells[li][fi], par.Cells[li][fi]) {
				t.Errorf("%s @%dFU: sequential %+v != parallel %+v",
					seq.Names[li], fus[fi], seq.Cells[li][fi], par.Cells[li][fi])
			}
		}
	}
}

// TestCancelledPostRecomputesExact: a POST request cancelled in the
// middle of phase 1 must leave its run's phase-1 memo clean. Two
// duplicate requests for LL7 at 2 FUs, a flight's leader and a waiter
// on it, both run out of a 1ms budget inside phase 1; a third request
// in the same run then computes phase 1 cold and reproduces the golden
// LL7,2,post row exactly.
func TestCancelledPostRecomputesExact(t *testing.T) {
	testutil.LeakCheck(t)
	req := sched.Request{Spec: livermore.ByName("LL7").Spec, Machine: machine.New(2)}
	run := sched.WithRunMemo(context.Background())
	short, cancel := context.WithTimeout(run, time.Millisecond)
	defer cancel()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = sched.Schedule(short, "post", req)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("request %d: err = %v, want context.DeadlineExceeded", i, err)
		}
	}

	res, err := sched.Schedule(run, "post", req)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/table1.csv")
	if err != nil {
		t.Fatal(err)
	}
	// 2.074 is the row's analytic bound, which no schedule changes.
	row := fmt.Sprintf("LL7,2,post,%.3f,2.074,%v,%d", res.Speedup, res.Converged, res.Barriers)
	if !strings.Contains(string(golden), "\n"+row+"\n") {
		t.Errorf("rerun row %q is not in testdata/table1.csv", row)
	}
}

// TestTableNTechniques renders a four-technique table through the same
// layout the paper pair uses — no generic-matrix fallback.
func TestTableNTechniques(t *testing.T) {
	kernels := []*livermore.Kernel{livermore.ByName("LL3")}
	techniques := []string{"list", "modulo", "post", "grip"}
	tbl, outs, err := RunTable(context.Background(), kernels, []int{2, 4}, techniques,
		sched.Config{}, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(kernels)*2*len(techniques) {
		t.Fatalf("got %d outcomes", len(outs))
	}
	if got := tbl.Techniques; !reflect.DeepEqual(got, techniques) {
		t.Errorf("table techniques %v, want %v", got, techniques)
	}
	c := tbl.Cells[0][0]
	if len(c.Stats) != 4 {
		t.Fatalf("cell has %d stats, want 4", len(c.Stats))
	}
	// The paper's ordering on a vectorizable loop: pipelining beats
	// compaction, integrated constraints beat the rest.
	li, gi := slices.Index(tbl.Techniques, "list"), slices.Index(tbl.Techniques, "grip")
	for fi := range tbl.FUs {
		c := tbl.Cells[0][fi]
		if c.Stats[gi].Speedup < c.Stats[li].Speedup-0.01 {
			t.Errorf("@%dFU: grip %.2f below list %.2f", tbl.FUs[fi], c.Stats[gi].Speedup, c.Stats[li].Speedup)
		}
	}
	out := tbl.Format()
	for _, want := range []string{"List", "Modulo", "POST", "GRiP", "LL3", "Mean", "WHM"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted N-technique table missing %q:\n%s", want, out)
		}
	}
	csv := tbl.CSV()
	for _, tech := range techniques {
		if !strings.Contains(csv, "LL3,2,"+tech+",") {
			t.Errorf("CSV missing technique row %q", tech)
		}
	}
}

// TestTableConfigSweepDistinctCells proves a table under a non-default
// configuration schedules its own cells: with the unwind factor fixed
// at 8, LL3's POST cell at 2 FUs stops short of the pattern the paper
// default's ladder converges on.
func TestTableConfigSweepDistinctCells(t *testing.T) {
	kernels := []*livermore.Kernel{livermore.ByName("LL3")}
	cell := func(cfg sched.Config) Stat {
		t.Helper()
		tbl, _, err := RunTable(context.Background(), kernels, []int{2}, []string{"post"}, cfg, batch.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tbl.Cells[0][0].Stats[0]
	}
	def, fixed := cell(sched.Config{}), cell(sched.Config{Unwind: 8})
	if !def.Converged || fixed.Converged || def == fixed {
		t.Errorf("paper default %+v, unwind=8 %+v: want a converged default and a distinct, unconverged configured cell", def, fixed)
	}
}

// TestValidateSample proves semantic equivalence of the scheduled
// pipelines for a representative subset (the full sweep runs in the
// livermore and pipeline packages).
func TestValidateSample(t *testing.T) {
	for _, name := range []string{"LL1", "LL3", "LL5", "LL13"} {
		k := livermore.ByName(name)
		for _, f := range []int{2, 8} {
			if err := ValidateCell(k, f, sched.Config{}); err != nil {
				t.Errorf("%s @%dFU: %v", name, f, err)
			}
		}
	}
	// A configured schedule validates too — and it is the configured
	// schedule that gets validated, not the paper default.
	if err := ValidateCell(livermore.ByName("LL3"), 2, sched.Config{Unwind: 12}); err != nil {
		t.Errorf("LL3 @2FU unwind=12: %v", err)
	}
}

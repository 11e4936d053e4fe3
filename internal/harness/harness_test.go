package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
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
	gi, pi := tbl.Col("grip"), tbl.Col("post")
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
			// aggregate claim below. EXPERIMENTS.md discusses the
			// deviating cells.
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

// freshKernels numbers the kernel copies freshKernel returns.
var freshKernels atomic.Int32

// freshKernel returns a copy of the named kernel whose spec carries a
// name no earlier call returned. The name joins POST's phase-1 memo key
// and changes no schedule, so the process-wide memo, which no test can
// reset, cannot already hold the copy's phase 1, whatever ran earlier
// in the binary (-count=N included).
func freshKernel(name string) *livermore.Kernel {
	k := *livermore.ByName(name)
	spec := *k.Spec
	spec.Name = fmt.Sprintf("%s-fresh-%d", name, freshKernels.Add(1))
	k.Spec = &spec
	return &k
}

// TestParallelTableBitIdentical runs a Table 1 slice with four workers
// and then sequentially, with a fresh result cache for each run, and
// requires every cell to be bit-identical — the acceptance criterion
// for moving the harness onto the batch engine. The parallel pass runs
// first, on fresh kernel copies, so that POST phase-1 results are
// computed by concurrent workers rather than replayed from the
// process-global phase-1 memo, which result caches cannot isolate.
func TestParallelTableBitIdentical(t *testing.T) {
	kernels := []*livermore.Kernel{freshKernel("LL1"), freshKernel("LL3"), freshKernel("LL5")}
	fus := []int{2, 4}
	par, _, err := RunTable1Ctx(context.Background(), kernels, fus,
		batch.Options{Parallelism: 4, Cache: batch.NewCache(64)})
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := RunTable1Ctx(context.Background(), kernels, fus,
		batch.Options{Parallelism: 1, Cache: batch.NewCache(64)})
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

// TestSharedCacheMakesRerunsFree reruns a cell through the shared cache
// and requires the second pass to be all cache hits.
func TestSharedCacheMakesRerunsFree(t *testing.T) {
	kernels := []*livermore.Kernel{livermore.ByName("LL3")}
	cache := batch.NewCache(64)
	opts := batch.Options{Cache: cache}
	first, _, err := RunTable1Ctx(context.Background(), kernels, []int{2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, outs, err := RunTable1Ctx(context.Background(), kernels, []int{2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if !o.CacheHit {
			t.Errorf("%s %s: rerun missed the cache", o.Job.Technique, o.Job.DisplayName())
		}
	}
	second, _, err := RunTable1Ctx(context.Background(), kernels, []int{2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Cells[0][0], second.Cells[0][0]) {
		t.Errorf("cached cell differs: %+v != %+v", first.Cells[0][0], second.Cells[0][0])
	}
}

// TestCancelledPostRecomputesExact: a POST job cancelled in the middle
// of phase 1 must leave the phase-1 memo and the batch cache clean.
// LL7 at 2 FUs under MaxUnwind 48, on a fresh kernel copy, so every
// iteration starts phase 1 cold: two duplicate jobs under a 1ms budget
// both time out inside it, and the rerun through the same cache
// computes the golden LL7,2,post row exactly.
func TestCancelledPostRecomputesExact(t *testing.T) {
	testutil.LeakCheck(t)
	k := freshKernel("LL7")
	cfg := sched.Config{MaxUnwind: 48}
	cache := batch.NewCache(16)
	job := batch.Job{Technique: "post", Spec: k.Spec, Machine: machine.New(2), Config: cfg, Label: k.Name}
	outs, err := batch.Run(context.Background(), []batch.Job{job, job},
		batch.Options{Parallelism: 2, Timeout: time.Millisecond, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if !errors.Is(o.Err, context.DeadlineExceeded) {
			t.Fatalf("job %d: err = %v, want context.DeadlineExceeded", i, o.Err)
		}
	}

	tbl, outs, err := RunTable(context.Background(), []*livermore.Kernel{k}, []int{2},
		[]string{"post"}, cfg, batch.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Tier != batch.TierCompute {
		t.Errorf("rerun served from %v, want a fresh compute", outs[0].Tier)
	}
	if s := tbl.Cells[0][0].Stats[0]; fmt.Sprintf("%.3f", s.Speedup) != "2.575" || s.Barriers != 254738 || s.Converged {
		t.Errorf("rerun = %+v, want speedup 2.575, 254738 barriers, not converged", s)
	}
	golden, err := os.ReadFile("testdata/table1.csv")
	if err != nil {
		t.Fatal(err)
	}
	row := strings.Split(tbl.CSV(), "\n")[1]
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
		sched.Config{}, batch.Options{Cache: batch.NewCache(16)})
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
	li, gi := tbl.Col("list"), tbl.Col("grip")
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
// configuration occupies its own cache entries: a second run of the
// same config is all hits, while the default-config run still misses.
func TestTableConfigSweepDistinctCells(t *testing.T) {
	kernels := []*livermore.Kernel{livermore.ByName("LL3")}
	cache := batch.NewCache(64)
	opts := batch.Options{Cache: cache}
	cfg := sched.Config{Unwind: 12}
	_, outs, err := RunTable(context.Background(), kernels, []int{2}, []string{"grip"}, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].CacheHit {
		t.Error("fresh configured run hit the cache")
	}
	_, outs, err = RunTable(context.Background(), kernels, []int{2}, []string{"grip"}, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].CacheHit {
		t.Error("identical configured rerun missed the cache")
	}
	_, outs, err = RunTable(context.Background(), kernels, []int{2}, []string{"grip"}, sched.Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].CacheHit {
		t.Error("default-config run shared the configured run's cache entry")
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

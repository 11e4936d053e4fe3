package harness

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/post"
	"repro/internal/sched"
)

var updateRecord = flag.Bool("update", false, "rewrite testdata/schedule_record.csv from the current scheduler")

// recordPath is the golden schedule record TestScheduleRecord compares
// against.
var recordPath = filepath.Join("testdata", "schedule_record.csv")

// recordFuzzSeeds is the number of fuzz seeds (0, 1, ...) the record
// schedules with GRiP.
const recordFuzzSeeds = 200

// recordFUs are the functional-unit widths of every fixed-width row.
var recordFUs = []int{2, 4, 8}

// TestScheduleRecord pins the scheduler's behaviour, not only the
// speedups the golden table shows: one row per schedule, holding the
// unwind factor, convergence, rows, the kernel's rows and iteration
// span, every core.Stats field and a hash of the printed graph. The
// rows are GRiP at 2/4/8 FUs, POST phase 1 and POST's post-pass at
// 2/4/8 FUs on the 14 kernels, and GRiP at 2/4/8 FUs on fuzz seeds
// 0-199 with the fuzzer's unwind cap. A change that moves any field
// rewrites testdata/schedule_record.csv with -update in the same diff
// and says which rows moved and why. The fuzz rows are computed a
// second time under CrossCheck, which must not change a row.
func TestScheduleRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("698 schedules in -short mode")
	}
	kernels := recordKernelJobs()
	fuzz := recordFuzzJobs(false)
	got := runRecordJobs(t, append(kernels, fuzz...))
	header := recordHeader()
	if *updateRecord {
		out := header + "\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(recordPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), recordPath)
	} else {
		raw, err := os.ReadFile(recordPath)
		if err != nil {
			t.Fatalf("%v (regenerate with go test ./internal/harness -run TestScheduleRecord -update)", err)
		}
		lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if lines[0] != header {
			t.Fatalf("record header changed:\n got  %s\n want %s", header, lines[0])
		}
		diffRecord(t, "plain", lines[1:], got)
	}
	checked := runRecordJobs(t, recordFuzzJobs(true))
	diffRecord(t, "CrossCheck", got[len(got)-len(recordFUs)*recordFuzzSeeds:], checked)
}

// recordJob computes one or more record rows.
type recordJob func(ctx context.Context) ([]string, error)

// recordKernelJobs returns one job per kernel: GRiP at 2/4/8 FUs, POST
// phase 1, then POST's post-pass at 2/4/8 FUs on clones of that phase
// 1, all under the paper-default configuration.
func recordKernelJobs() []recordJob {
	var jobs []recordJob
	for _, k := range livermore.All() {
		jobs = append(jobs, func(ctx context.Context) ([]string, error) {
			var rows []string
			for _, fus := range recordFUs {
				res, err := pipeline.PerfectPipeline(ctx, k.Spec, sched.Config{}.Pipeline(machine.New(fus)))
				if err != nil {
					return nil, err
				}
				rows = append(rows, recordRow(fmt.Sprintf("%s/grip/%d", k.Name, fus), res))
			}
			p1, err := pipeline.PerfectPipeline(ctx, k.Spec, post.Phase1Config(sched.Config{}.Pipeline(machine.New(2))))
			if err != nil {
				return nil, err
			}
			rows = append(rows, recordRow(k.Name+"/post-phase1", p1))
			for _, fus := range recordFUs {
				res, err := post.From(ctx, p1.Clone(), sched.Config{}.Pipeline(machine.New(fus)))
				if err != nil {
					return nil, err
				}
				rows = append(rows, recordRow(fmt.Sprintf("%s/post/%d", k.Name, fus), res))
			}
			return rows, nil
		})
	}
	return jobs
}

// recordFuzzJobs returns one job per fuzz seed: GRiP at 2/4/8 FUs with
// the ladder capped at FuzzMaxUnwind, under CrossCheck when checked.
func recordFuzzJobs(checked bool) []recordJob {
	jobs := make([]recordJob, 0, recordFuzzSeeds)
	for seed := int64(0); seed < recordFuzzSeeds; seed++ {
		jobs = append(jobs, func(ctx context.Context) ([]string, error) {
			spec := fuzzgen.SweepSpec(seed)
			var rows []string
			for _, fus := range recordFUs {
				cfg := sched.Config{MaxUnwind: FuzzMaxUnwind, CrossCheck: checked}.Pipeline(machine.New(fus))
				res, err := pipeline.PerfectPipeline(ctx, spec, cfg)
				if err != nil {
					return nil, err
				}
				rows = append(rows, recordRow(fmt.Sprintf("seed%03d/grip/%d", seed, fus), res))
			}
			return rows, nil
		})
	}
	return jobs
}

// runRecordJobs runs jobs on up to GOMAXPROCS workers and returns their
// rows in job order.
func runRecordJobs(t *testing.T, jobs []recordJob) []string {
	t.Helper()
	out := make([][]string, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = jobs[i](context.Background())
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	var rows []string
	for i, err := range errs {
		if err != nil {
			t.Fatalf("record job %d: %v", i, err)
		}
		rows = append(rows, out[i]...)
	}
	return rows
}

// recordHeader names the record's columns; the core.Stats columns
// follow the struct, so a new counter joins the record by itself.
func recordHeader() string {
	cols := []string{"schedule", "U", "converged", "rows", "kernel_rows", "kernel_span"}
	st := reflect.TypeOf(core.Stats{})
	for i := range st.NumField() {
		cols = append(cols, st.Field(i).Name)
	}
	return strings.Join(append(cols, "graph_fnv64"), ",")
}

// recordRow formats one schedule's row under recordHeader.
func recordRow(name string, res *pipeline.Result) string {
	krows, kspan := 0, 0
	if res.Kernel != nil {
		krows, kspan = res.Kernel.Rows, res.Kernel.IterSpan
	}
	cols := []string{name, fmt.Sprint(res.U), fmt.Sprint(res.Converged), fmt.Sprint(res.Rows),
		fmt.Sprint(krows), fmt.Sprint(kspan)}
	sv := reflect.ValueOf(res.Stats)
	for i := range sv.NumField() {
		cols = append(cols, fmt.Sprint(sv.Field(i).Int()))
	}
	h := fnv.New64a()
	h.Write([]byte(res.Unwound.G.String()))
	return strings.Join(append(cols, fmt.Sprintf("%016x", h.Sum64())), ",")
}

// diffRecord reports every row of got that differs from want, the
// first ten in full.
func diffRecord(t *testing.T, pass string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d rows, want %d", pass, len(got), len(want))
	}
	moved := 0
	for i := range min(len(want), len(got)) {
		if want[i] == got[i] {
			continue
		}
		if moved++; moved <= 10 {
			t.Errorf("%s: row %d moved:\n got  %s\n want %s", pass, i+1, got[i], want[i])
		}
	}
	if moved > 10 {
		t.Errorf("%s: %d rows moved in all", pass, moved)
	}
}

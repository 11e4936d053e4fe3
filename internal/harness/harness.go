// Package harness runs the paper's experiments: Table 1 (GRiP vs POST
// over the Livermore loops at 2/4/8 functional units, with mean and
// weighted-harmonic-mean summary rows) plus per-cell semantic validation
// and analytic-bound cross-checks. The table is generalized: any set of
// registered techniques renders through the same layout, the paper's
// grip/post pair being the default.
//
// All cells run through the sched registry and the sched/batch engine:
// the table is a job matrix executed by a worker pool, and a
// process-wide metrics cache makes revisited cells (bench reruns,
// config sweeps, figure passes) free. Cell values are
// independent of worker count and execution order — every technique is
// a pure function of (loop, machine, configuration) — so parallel runs
// are bit-identical to sequential ones.
package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/deps"
	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/sched/batch"
)

// defaultCache is shared by every harness entry point in the process,
// so a cell scheduled for the table is not re-scheduled for a figure
// pass or a bench rerun. It holds metrics-only results, tiny and
// shared read-only, and is sized to retain every fingerprint a process
// plausibly touches (full tables, sweeps over many configurations).
// Jobs that want a scheduled graph (validation) compute it afresh.
var defaultCache = batch.NewCache(8192)

// SharedCache returns the process-wide result cache the harness runs
// against; commands can pass it to their own batch runs to share work
// with table runs.
func SharedCache() *batch.Cache { return defaultCache }

// Table1Techniques is the paper's technique pair, in its column order.
var Table1Techniques = []string{"grip", "post"}

// Stat is one technique's measurement in one table cell.
type Stat struct {
	Speedup   float64
	Converged bool
	// Barriers counts resource-barrier events during scheduling —
	// GRiP's integrated-constraint cost metric. The pipelining
	// techniques report it (POST's count comes from its phase-1 run,
	// where only branch slots can block); the single-iteration
	// baselines report zero.
	Barriers int
}

// Cell is one (loop, FU count) table cell: one Stat per technique, in
// Table.Techniques order, plus the technique-independent analytic
// bound.
type Cell struct {
	Stats []Stat
	// Bound is the analytic speedup limit for this loop and FU count:
	// seq ops / max(RecMII, ResMII) on the unoptimized body. Redundant
	// operation removal can push measured speedups above it.
	Bound float64
}

// Table holds a technique-comparison table; the paper's Table 1 is the
// instance with Techniques = ["grip", "post"].
type Table struct {
	Techniques []string
	FUs        []int
	Names      []string
	SeqOps     []int
	Cells      [][]Cell // [loop][fu]
	MeanRow    []Cell
	WHMRow     []Cell
}

// Col returns the Stats index of a technique, or -1 when the table does
// not contain it.
func (t *Table) Col(technique string) int {
	for i, name := range t.Techniques {
		if name == technique {
			return i
		}
	}
	return -1
}

// cellJobs returns one job per technique for one table cell.
func cellJobs(k *livermore.Kernel, fus int, techniques []string, cfg sched.Config) []batch.Job {
	m := machine.New(fus)
	jobs := make([]batch.Job, 0, len(techniques))
	for _, tech := range techniques {
		jobs = append(jobs, batch.Job{Technique: tech, Spec: k.Spec, Machine: m, Config: cfg, Label: k.Name})
	}
	return jobs
}

// cellOf assembles a Cell from the cell's outcomes (technique order).
func cellOf(k *livermore.Kernel, fus int, outs []batch.Outcome) (Cell, error) {
	c := Cell{Stats: make([]Stat, len(outs))}
	for i, o := range outs {
		if o.Err != nil {
			return Cell{}, fmt.Errorf("%s @%dFU %s: %w", k.Name, fus, o.Job.Technique, o.Err)
		}
		c.Stats[i] = Stat{
			Speedup:   o.Result.Speedup,
			Converged: o.Result.Converged,
			Barriers:  o.Result.Barriers,
		}
	}
	info := deps.Analyze(k.Spec)
	c.Bound = float64(k.Spec.SeqOpsPerIter()) / info.RateBound(k.Spec.SeqOpsPerIter()-1, fus)
	return c, nil
}

// ValidateCell schedules a cell with GRiP under cfg and proves the
// scheduled code semantically equivalent to the original loop on the
// kernel's workload, for full and early-exit trip counts. The config
// is the table's, so the validated schedule is the one the table
// displayed. Validation needs the scheduled graph, which no cache
// holds, so every call schedules the cell afresh.
func ValidateCell(k *livermore.Kernel, fus int, cfg sched.Config) error {
	outs, err := batch.Run(context.Background(),
		[]batch.Job{{Technique: "grip", Spec: k.Spec, Machine: machine.New(fus), Config: cfg,
			Label: k.Name, Want: sched.WantRaw}},
		batch.Options{})
	if err != nil {
		return err
	}
	if outs[0].Err != nil {
		return outs[0].Err
	}
	res := outs[0].Result.Raw().(*pipeline.Result)
	return pipeline.ValidateSemantics(res, k.Vars, k.Arrays(res.U+16), oracleTrips(res.Spec, res.U))
}

// RunTable1Ctx reproduces the paper's Table 1 (grip vs post, paper
// defaults) through the batch engine; see RunTable.
func RunTable1Ctx(ctx context.Context, kernels []*livermore.Kernel, fus []int, opts batch.Options) (*Table, []batch.Outcome, error) {
	return RunTable(ctx, kernels, fus, Table1Techniques, sched.Config{}, opts)
}

// RunTable runs a technique-comparison table through the batch engine:
// one job per (kernel, FU count, technique) cell entry, all under cfg,
// executed by a worker pool. The outcomes (in job order: kernels
// outermost, FU counts inner, techniques innermost) are returned
// alongside the table for bench reporting. A nil opts.Cache uses the
// process-wide shared cache.
func RunTable(ctx context.Context, kernels []*livermore.Kernel, fus []int, techniques []string, cfg sched.Config, opts batch.Options) (*Table, []batch.Outcome, error) {
	if opts.Cache == nil {
		opts.Cache = defaultCache
	}
	var jobs []batch.Job
	for _, k := range kernels {
		for _, f := range fus {
			jobs = append(jobs, cellJobs(k, f, techniques, cfg)...)
		}
	}
	outcomes, err := batch.Run(ctx, jobs, opts)
	if err != nil {
		return nil, outcomes, err
	}
	t := &Table{Techniques: append([]string(nil), techniques...), FUs: fus}
	nt := len(techniques)
	for ki, k := range kernels {
		t.Names = append(t.Names, k.Name)
		t.SeqOps = append(t.SeqOps, k.Spec.SeqOpsPerIter())
		row := make([]Cell, len(fus))
		for fi, f := range fus {
			base := (ki*len(fus) + fi) * nt
			c, err := cellOf(k, f, outcomes[base:base+nt])
			if err != nil {
				return nil, outcomes, err
			}
			row[fi] = c
		}
		t.Cells = append(t.Cells, row)
	}
	t.summarize()
	return t, outcomes, nil
}

// summarize fills the arithmetic-mean and weighted-harmonic-mean rows,
// per technique.
func (t *Table) summarize() {
	t.MeanRow = make([]Cell, len(t.FUs))
	t.WHMRow = make([]Cell, len(t.FUs))
	for fi := range t.FUs {
		mean := Cell{Stats: make([]Stat, len(t.Techniques))}
		whm := Cell{Stats: make([]Stat, len(t.Techniques))}
		for ti := range t.Techniques {
			var sum, wNum, wDen float64
			for li := range t.Cells {
				s := t.Cells[li][fi].Stats[ti]
				w := float64(t.SeqOps[li])
				sum += s.Speedup
				wNum += w
				if s.Speedup > 0 {
					wDen += w / s.Speedup
				}
			}
			mean.Stats[ti].Speedup = sum / float64(len(t.Cells))
			if wDen > 0 {
				whm.Stats[ti].Speedup = wNum / wDen
			}
		}
		t.MeanRow[fi] = mean
		t.WHMRow[fi] = whm
	}
}

// displayTech maps registry names to the paper's column headings.
var displayTech = map[string]string{
	"grip":   "GRiP",
	"post":   "POST",
	"modulo": "Modulo",
	"list":   "List",
}

func techHeading(name string) string {
	if d, ok := displayTech[name]; ok {
		return d
	}
	return name
}

// Format renders the table in the paper's layout, one column group per
// FU count with one sub-column per technique.
func (t *Table) Format() string {
	var b strings.Builder
	groupW := 8*len(t.Techniques) - 1
	fmt.Fprintf(&b, "%-6s", "Loop")
	for _, f := range t.FUs {
		fmt.Fprintf(&b, " | %-*s", groupW, fmt.Sprintf("%6d FU's", f))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-6s", "")
	for range t.FUs {
		b.WriteString(" |")
		for _, tech := range t.Techniques {
			fmt.Fprintf(&b, " %7s", techHeading(tech))
		}
	}
	b.WriteByte('\n')
	rule := strings.Repeat("-", 6+len(t.FUs)*(3+groupW)) + "\n"
	b.WriteString(rule)
	writeRow := func(label string, cells []Cell) {
		fmt.Fprintf(&b, "%-6s", label)
		for fi := range t.FUs {
			b.WriteString(" |")
			for ti := range t.Techniques {
				fmt.Fprintf(&b, " %7.1f", cells[fi].Stats[ti].Speedup)
			}
		}
		b.WriteByte('\n')
	}
	for li, name := range t.Names {
		writeRow(name, t.Cells[li])
	}
	b.WriteString(rule)
	writeRow("Mean", t.MeanRow)
	writeRow("WHM", t.WHMRow)
	return b.String()
}

// CSV renders the table for machine consumption, one row per (loop, FU
// count, technique).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("loop,fus,technique,speedup,bound,converged,barriers\n")
	for li, name := range t.Names {
		for fi, f := range t.FUs {
			c := t.Cells[li][fi]
			for ti, tech := range t.Techniques {
				s := c.Stats[ti]
				fmt.Fprintf(&b, "%s,%d,%s,%.3f,%.3f,%v,%d\n",
					name, f, tech, s.Speedup, c.Bound, s.Converged, s.Barriers)
			}
		}
	}
	return b.String()
}

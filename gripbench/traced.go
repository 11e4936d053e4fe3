package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/deps"
	"repro/internal/fuzzgen"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/sched/batch"
)

// tracedReport is what the traced process prints.
type tracedReport struct {
	Layer map[string]float64 `json:"layer"`
	// Cells are the replay's metrics, cell for cell in the program's
	// order. For fuzz-check, Registry holds the same cells as the traced
	// run's own batch.Run reported them.
	Cells    []cell    `json:"cells"`
	Registry []cell    `json:"registry,omitempty"`
	ItemNS   []int64   `json:"item_ns"`
	Failures []failure `json:"failures,omitempty"`
}

// tracedMode replays the workload's items through the layers with every
// call traced, writes the spans, and reports the per-layer metrics. No
// end-to-end metric comes from this process.
func tracedMode(ctx context.Context, a childArgs) (any, error) {
	tr := newTracer()
	r := newReplica(tr)
	out := &tracedReport{}
	var err error
	switch a.w.name {
	case "table1":
		traceJobs(ctx, r, table1Jobs(), nil, out)
	case "grip-seeded":
		var specs []*ir.LoopSpec
		if specs, err = r.loops(gripLoops); err == nil {
			traceJobs(ctx, r, gripJobs(specs), r.simInputs(specs), out)
		}
	default:
		err = traceFuzz(ctx, r, out)
	}
	if err != nil {
		return nil, err
	}
	layer := r.layer()
	for k, v := range out.Layer {
		layer[k] = v
	}
	out.Layer = layer

	path := filepath.Join(a.traceDir, a.w.name+".json")
	if err := tr.writeChrome(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	tr.summarize(os.Stderr)
	jobs := layer["grip.ms"] + layer["post.ms"] + layer["modulo.ms"] + layer["list.ms"]
	fmt.Fprintf(os.Stderr, "gripbench: %d spans in %s; replayed jobs took %.1f ms, POST phase 1 %.1f ms of it (%.0f%%)\n",
		len(tr.spans), path, jobs, layer["post.phase1_ms"], 100*layer["post.phase1_ms"]/jobs)
	return out, nil
}

// loops generates a seeded workload's loops inside a fuzzgen span.
func (r *replica) loops(gen func() ([]*ir.LoopSpec, error)) ([]*ir.LoopSpec, error) {
	var specs []*ir.LoopSpec
	var err error
	r.call("fuzzgen.SweepSpec", "fuzzgen.generate_ms", func() { specs, err = gen() })
	return specs, err
}

// simInput is a generated loop's simulation inputs.
type simInput struct {
	vars   map[string]int64
	arrays map[string][]int64
}

// simInputs builds every loop's simulation inputs inside a fuzzgen span.
func (r *replica) simInputs(specs []*ir.LoopSpec) map[*ir.LoopSpec]simInput {
	in := make(map[*ir.LoopSpec]simInput, len(specs))
	r.call("fuzzgen.Workload", "fuzzgen.generate_ms", func() {
		for _, s := range specs {
			vars, arrays := fuzzgen.Workload(s)
			in[s] = simInput{vars, arrays}
		}
	})
	return in
}

// traceJobs replays a batch workload job by job, each job one item, and
// proves every pipelining schedule on its loop's inputs when given them.
func traceJobs(ctx context.Context, r *replica, jobs []batch.Job, inputs map[*ir.LoopSpec]simInput, out *tracedReport) {
	for i, j := range jobs {
		r.tr.item = int32(i)
		c, raw, d, _ := r.job(ctx, j)
		out.Cells = append(out.Cells, c)
		out.ItemNS = append(out.ItemNS, d.Nanoseconds())
		res, ok := raw.(*pipeline.Result)
		if in, have := inputs[j.Spec]; ok && have {
			if err := r.validate(res, in.vars, in.arrays); err != nil {
				out.Failures = append(out.Failures, failure{c.ID, err.Error()})
			}
		}
	}
	r.tr.item = -1
}

// traceFuzz runs every loop three ways. harness.CheckLoop itself is the
// item. Its job matrix then goes through batch.Run as CheckLoop drives
// the pool, which prices the pool, and is replayed through the layers
// under the oracle CheckLoop applies. Last, the pipelining jobs run once
// more with CrossCheck off, which prices the reference cross-checks.
func traceFuzz(ctx context.Context, r *replica, out *tracedReport) error {
	specs, err := r.loops(fuzzLoops)
	if err != nil {
		return err
	}
	inputs := r.simInputs(specs)
	// The unchecked replay books its work to a replica of its own, so
	// that only its core.Schedule time is compared.
	unchecked := newReplica(r.tr)
	var poolT, jobT time.Duration
	workers := 0
	for li, spec := range specs {
		r.tr.item = int32(li)
		var v *harness.LoopVerdict
		d := r.call("harness.CheckLoop", "harness.checkloop_ms", func() {
			v, err = harness.CheckLoop(ctx, spec, harness.FuzzOptions{})
		})
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		out.ItemNS = append(out.ItemNS, d.Nanoseconds())
		for _, f := range v.Failures {
			out.Failures = append(out.Failures, failure{spec.Name, f.String()})
		}

		jobs := fuzzJobs(spec, true)
		var outs []batch.Outcome
		poolT += r.call("batch.Run", "", func() {
			outs, err = batch.Run(ctx, jobs, batch.Options{Timeout: harness.DefaultFuzzTimeout})
		})
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		workers = batch.EffectiveParallelism(0, len(jobs))
		for _, o := range outs {
			jobT += o.Wall
			out.Registry = append(out.Registry, outcomeCell(o))
		}

		info := deps.Analyze(spec)
		cells := make([]cell, len(jobs))
		for i, j := range jobs {
			c, raw, _, err := r.job(ctx, j)
			cells[i] = c
			out.Cells = append(out.Cells, c)
			if err != nil {
				continue // the cell carries the error; the registry's must match it
			}
			if why := r.judge(j, c, raw, info, inputs[spec]); why != "" {
				out.Failures = append(out.Failures, failure{spec.Name, c.ID + ": " + why})
			}
		}

		id := r.tr.begin("crosscheck.off")
		for i, j := range jobs {
			if j.Technique != "grip" && j.Technique != "post" {
				continue
			}
			j.Config.CrossCheck = false
			if c, _, _, _ := unchecked.job(ctx, j); c.M != cells[i].M {
				out.Failures = append(out.Failures, failure{spec.Name, c.ID + ": the schedule changes with CrossCheck off"})
			}
		}
		r.tr.end(id)
	}
	r.tr.item = -1
	pool := time.Duration(workers) * poolT
	out.Layer = map[string]float64{
		"batch.jobs":         float64(len(out.Registry)),
		"batch.overhead_ms":  ms(pool - jobT),
		"batch.busy_frac":    float64(jobT) / float64(pool),
		"core.crosscheck_ms": ms(r.finT + r.infT - unchecked.finT - unchecked.infT),
	}
	return nil
}

// judge holds one replayed cell to the oracle CheckLoop applies: a
// pipelining schedule must compute what its source loop computes in the
// simulator, and a single-iteration baseline's rate must lie between
// the dependence bound and the sequential cost.
func (r *replica) judge(j batch.Job, c cell, raw any, info *deps.LoopInfo, in simInput) string {
	const eps = 1e-9
	if c.M.CyclesPerIter <= 0 || c.M.Speedup <= 0 {
		return fmt.Sprintf("non-positive rate %.3f, speedup %.3f", c.M.CyclesPerIter, c.M.Speedup)
	}
	if res, ok := raw.(*pipeline.Result); ok {
		if err := r.validate(res, in.vars, in.arrays); err != nil {
			return err.Error()
		}
		return ""
	}
	seq := j.Spec.SeqOpsPerIter()
	if bound := info.RateBound(seq-1, j.Machine.OpSlots); c.M.CyclesPerIter+eps < bound {
		return fmt.Sprintf("%.3f cycles/iter below the rate bound %.3f", c.M.CyclesPerIter, bound)
	}
	if c.M.CyclesPerIter > float64(seq)+eps {
		return fmt.Sprintf("%.3f cycles/iter above the sequential cost %d", c.M.CyclesPerIter, seq)
	}
	return ""
}

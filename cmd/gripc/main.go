// Command gripc schedules a loop described in the textir format with
// any registered technique and reports the pipelined kernel, its rate,
// and the speedup, optionally printing the full schedule. Several
// machine widths can be compared in one run; -parallel schedules them
// concurrently through the batch engine.
//
// Usage:
//
//	go run ./cmd/gripc -fus 4 [-technique grip|post|modulo|list] [-print] < loop.txt
//	go run ./cmd/gripc -fus 2,4,8 -technique grip -parallel 4 < loop.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/post"
	"repro/internal/sched"
	"repro/internal/sched/batch"
	"repro/internal/textir"
)

func main() {
	fusFlag := flag.String("fus", "4", "functional units (comma-separated list compares widths)")
	technique := flag.String("technique", "grip",
		fmt.Sprintf("scheduling technique (registered: %s)", strings.Join(sched.Names(), ", ")))
	printRows := flag.Bool("print", false, "print the scheduled rows (grip and post only)")
	noOpt := flag.Bool("no-opt", false, "disable redundant-operation removal (grip and post only)")
	unwind := flag.Int("unwind", 0, "fix the unwind factor (0 = automatic ladder)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker count when comparing several widths (batch path only; -print/-no-opt runs are sequential)")
	flag.Parse()

	tech := *technique
	if _, ok := sched.Lookup(tech); !ok {
		fmt.Fprintf(os.Stderr, "unknown technique %q (registered: %s)\n", tech, strings.Join(sched.Names(), ", "))
		os.Exit(2)
	}

	fus, err := machine.ParseFUs(*fusFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := sched.Config{Unwind: *unwind}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	spec, err := textir.Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("loop %s: %d ops/iteration sequential\n", spec.Name, spec.SeqOpsPerIter())

	// The detailed path supports -print and -no-opt, which need
	// technique-specific configuration and the raw schedule; it runs
	// each requested width in turn so the flags are never silently
	// ignored.
	if *printRows || *noOpt {
		for _, f := range fus {
			if err := detailed(spec, tech, f, *unwind, *printRows, *noOpt); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}

	var jobs []batch.Job
	for _, f := range fus {
		jobs = append(jobs, batch.Job{Technique: tech, Spec: spec, Machine: machine.New(f), Config: cfg})
	}
	outcomes, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: *parallel})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "%dFU: %v\n", o.Job.Machine.OpSlots, o.Err)
			os.Exit(1)
		}
		r := o.Result
		kernel := ""
		if r.KernelIterSpan > 0 {
			kernel = fmt.Sprintf(" kernel=%d rows/%d iters", r.KernelRows, r.KernelIterSpan)
		}
		fmt.Printf("%2dFU %s: %.3f cycles/iteration, speedup %.2f, converged=%v%s\n",
			o.Job.Machine.OpSlots, r.Technique, r.CyclesPerIter, r.Speedup, r.Converged, kernel)
	}
}

// detailed reproduces the original single-run report with the full
// schedule and optimization toggle.
func detailed(spec *ir.LoopSpec, tech string, fus, unwind int, printRows, noOpt bool) error {
	m := machine.New(fus)
	cfg := pipeline.DefaultConfig(m)
	cfg.Optimize = !noOpt
	cfg.Unwind = unwind
	var res *pipeline.Result
	var err error
	switch tech {
	case "grip":
		res, err = pipeline.PerfectPipeline(context.Background(), spec, cfg)
	case "post":
		res, err = post.Pipeline(context.Background(), spec, cfg)
	default:
		return fmt.Errorf("-print/-no-opt support only grip and post (got %q)", tech)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s @%dFU: converged=%v kernel=%v\n", tech, fus, res.Converged, res.Kernel)
	fmt.Printf("rate: %.3f cycles/iteration, speedup %.2f (unwound %d iterations, %d removed ops)\n",
		res.CyclesPerIter, res.Speedup, res.U, res.Unwound.Removed())
	if printRows {
		name := func(origin int) string {
			if origin == len(spec.Body) {
				return "+"
			}
			if origin == len(spec.Body)+1 {
				return "cj"
			}
			return fmt.Sprintf("o%d.", origin)
		}
		fmt.Print(harness.FigureRows(res.Unwound.G, name, 0))
	}
	return nil
}

// Command gripc schedules a loop described in the textir format with
// any registered technique and reports the pipelined kernel, its rate,
// and the speedup, optionally printing the full schedule. Several
// machine widths can be compared in one run; -parallel schedules them
// concurrently through the batch engine.
//
// Usage:
//
//	go run ./cmd/gripc -fus 4 [-technique grip|post|modulo|list] < loop.txt
//	go run ./cmd/gripc -fus 2,4,8 -technique grip -parallel 4 < loop.txt
//	go run ./cmd/gripc -fus 4 -technique post -print [-no-opt] < loop.txt
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
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count when comparing several widths")
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
	cfg := sched.Config{Unwind: *unwind, NoOptimize: *noOpt}
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

	// -print and -no-opt report the pipelined schedule itself, which
	// only the pipelining techniques produce.
	detailed := *printRows || *noOpt
	want := sched.WantMetrics
	if detailed {
		if tech != "grip" && tech != "post" {
			fmt.Fprintf(os.Stderr, "-print/-no-opt support only grip and post (got %q)\n", tech)
			os.Exit(1)
		}
		want = sched.WantRaw
	}

	var jobs []batch.Job
	for _, f := range fus {
		jobs = append(jobs, batch.Job{Technique: tech, Spec: spec, Machine: machine.New(f), Config: cfg, Want: want})
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
		if detailed {
			report(spec, tech, o.Job.Machine.OpSlots, o.Result.Raw().(*pipeline.Result), *printRows)
			continue
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

// report prints one width's pipelined schedule: its kernel and rate,
// the unwind factor and removed-op count, and with rows the scheduled
// rows themselves.
func report(spec *ir.LoopSpec, tech string, fus int, res *pipeline.Result, rows bool) {
	fmt.Printf("%s @%dFU: converged=%v kernel=%v\n", tech, fus, res.Converged, res.Kernel)
	fmt.Printf("rate: %.3f cycles/iteration, speedup %.2f (unwound %d iterations, %d removed ops)\n",
		res.CyclesPerIter, res.Speedup, res.U, res.Unwound.Removed())
	if !rows {
		return
	}
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

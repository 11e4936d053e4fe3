// Command gripbench is the repository's benchmark. One run measures one
// workload of BENCHMARK.json; README.md describes the workloads, the
// metrics and how to read the traced run's spans.
//
//	bash gripbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// The driver times cold rounds, each a single pass in a fresh process,
// until --seconds is spent, checks every output, and prints one JSON
// line last on standard output: the end-to-end metrics with --trace 0,
// or with --trace 1 the per-layer metrics of one more process that
// replays the items through each layer's entry points under a tracer.
// The processes it spawns run this binary in the internal mode its
// first argument names: round, check or traced.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "round":
			return childMain(args[1:], roundMode)
		case "check":
			return childMain(args[1:], checkMode)
		case "traced":
			return childMain(args[1:], tracedMode)
		}
	}
	return driverMain(args)
}

// childArgs are what the driver tells each process it spawns.
type childArgs struct {
	w        workload
	started  time.Time // when the driver started the process
	traceDir string
}

// childMain parses the driver's flags in a spawned process, runs the
// process's mode and prints the mode's report as one JSON line.
func childMain(args []string, mode func(context.Context, childArgs) (any, error)) int {
	fs := flag.NewFlagSet("gripbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	startNS := fs.Int64("start-ns", 0, "wall-clock time the driver started this process, in Unix ns")
	traceDir := fs.String("trace-dir", "", "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && *startNS <= 0 {
		err = errors.New("missing --start-ns")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gripbench: %v\n", err)
		return 2
	}
	rep, err := mode(context.Background(), childArgs{w: w, started: time.Unix(0, *startNS), traceDir: *traceDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gripbench: %s: %v\n", w.name, err)
		return 1
	}
	return emit(rep)
}

// emit prints v as one JSON line on standard output.
func emit(v any) int {
	if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "gripbench: %v\n", err)
		return 1
	}
	return 0
}

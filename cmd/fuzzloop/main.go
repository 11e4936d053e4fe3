// Command fuzzloop runs the differential fuzzer: seeded random loops
// through every registered scheduling backend at several machine
// widths, each result judged by the strongest available oracle — the
// pipelining techniques execute in the simulator against the original
// loop, the single-iteration baselines are held to their analytic
// bounds, and every backend runs with its internal cross-checks armed
// (see internal/harness/difffuzz.go).
//
// The run is deterministic: seed i of a sweep is always the same loop,
// the same workload, and the same verdict, so any failure printed here
// reproduces with -seeds 1 -seed-base i.
//
// -minimize shrinks each failing loop to a small reproducer (re-running
// the oracle on every candidate) and -corpus writes the reproducers as
// textir files — the checked-in regression corpus under testdata/corpus
// is exactly such output, replayed by the harness tests. -artifacts
// additionally writes pre/post-minimization loops and full error text
// for CI upload.
//
// Usage:
//
//	go run ./cmd/fuzzloop [-seeds 200] [-seed-base 0] [-budget 60s]
//	                      [-machines 2,4,8] [-technique grip,post,...]
//	                      [-parallel N] [-timeout 30s] [-maxunwind 24]
//	                      [-minimize] [-corpus testdata/corpus]
//	                      [-artifacts DIR]
//
// The summary line reports the seeds judged, the checks run, the
// failing loops, the elapsed time and the throughput in seeds per
// second. Exit status 0 means every judged loop passed; 1 means
// failures; 2 means a setup or infrastructure error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sched"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seeds     = flag.Int("seeds", 200, "number of seeded loops to generate and judge")
		seedBase  = flag.Int64("seed-base", 0, "first seed (seed i is seed-base+i)")
		budget    = flag.Duration("budget", 0, "wall-clock budget; 0 = run all seeds")
		machines  = flag.String("machines", "2,4,8", "comma-separated FU counts")
		technique = flag.String("technique", "", "comma-separated backends (default: all registered)")
		parallel  = flag.Int("parallel", 0, "batch workers per loop (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", harness.DefaultFuzzTimeout, "per-job scheduling timeout")
		maxUnwind = flag.Int("maxunwind", harness.FuzzMaxUnwind, "cap on the automatic unwind ladder")
		minimize  = flag.Bool("minimize", false, "shrink failing loops to minimal reproducers")
		minProbes = flag.Int("min-probes", 200, "oracle probe budget per minimization")
		corpus    = flag.String("corpus", "", "write minimized reproducers into this corpus directory")
		artifacts = flag.String("artifacts", "", "write pre/post-minimization loops and error text here")
	)
	flag.Parse()

	fus, err := machine.ParseFUs(*machines)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuzzloop: -machines: %v\n", err)
		return 2
	}
	cfg := sched.Config{MaxUnwind: *maxUnwind}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "fuzzloop: %v\n", err)
		return 2
	}
	var techniques []string
	if *technique != "" {
		for _, t := range strings.Split(*technique, ",") {
			t = strings.TrimSpace(t)
			if _, ok := sched.Lookup(t); !ok {
				fmt.Fprintf(os.Stderr, "fuzzloop: unknown technique %q (have %v)\n", t, sched.Names())
				return 2
			}
			techniques = append(techniques, t)
		}
	}

	opts := harness.SweepOptions{
		FuzzOptions: harness.FuzzOptions{
			Machines:    fus,
			Techniques:  techniques,
			Config:      cfg,
			Parallelism: *parallel,
			Timeout:     *timeout,
		},
		SeedBase:  *seedBase,
		Seeds:     *seeds,
		Budget:    *budget,
		Minimize:  *minimize,
		MinProbes: *minProbes,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	rep, err := harness.FuzzSweep(context.Background(), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuzzloop: %v\n", err)
		return 2
	}

	for i := range rep.Failures {
		f := &rep.Failures[i]
		if *corpus != "" {
			path, err := harness.WriteCorpusEntry(*corpus, f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fuzzloop: corpus write: %v\n", err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "fuzzloop: wrote %s\n", path)
		}
		if *artifacts != "" {
			if err := harness.WriteArtifacts(*artifacts, f); err != nil {
				fmt.Fprintf(os.Stderr, "fuzzloop: artifact write: %v\n", err)
				return 2
			}
		}
	}

	// Seeds per second is the fuzz throughput the per-push sweep logs;
	// minimizing failing loops, when asked, counts against it.
	var rate float64
	if rep.Elapsed > 0 {
		rate = float64(rep.Seeds) / rep.Elapsed.Seconds()
	}
	fmt.Printf("fuzzloop: %d seeds, %d checks, %d failing loop(s) in %v (%.1f seeds/s)\n",
		rep.Seeds, rep.Checks, len(rep.Failures), rep.Elapsed.Round(time.Millisecond), rate)
	for _, f := range rep.Failures {
		for _, ff := range f.Failures {
			fmt.Printf("  seed %d (%s): %s\n", f.Seed, f.Spec.Name, ff)
		}
	}
	if len(rep.Failures) > 0 {
		return 1
	}
	return 0
}

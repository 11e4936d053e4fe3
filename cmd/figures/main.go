// Command figures regenerates the paper's figures: the tree-instruction
// model and core transformations (Figures 1–3), iteration overlap and
// the simple-vs-perfect pipelining comparison (Figures 5–6), the
// Unifiable-ops and GRiP scheduling traces with their candidate sets
// (Figures 8 and 11), the gap divergence without prevention (Figure 9),
// the converged gapless schedule (Figure 13), and the section 1
// motivating example versus modulo scheduling.
//
// Usage:
//
//	go run ./cmd/figures            # all figures
//	go run ./cmd/figures -fig 9     # one figure (1, 2, 3, 5, 6, 8, 9, 11, 13, intro)
//
// A -fig outside that list or a -fus below 1 exits 2 before anything is
// printed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/harness"
)

// figs lists the -fig values, "all" first.
var figs = []string{"all", "1", "2", "3", "5", "6", "8", "9", "11", "13", "intro"}

// flagError is a bad flag value: render writes nothing, and main exits
// 2 as the other commands do on bad flags.
type flagError string

func (e flagError) Error() string { return string(e) }

func main() {
	fig := flag.String("fig", "all", "which figure to print: "+fmt.Sprint(figs))
	fus := flag.Int("fus", 3, "functional units for the trace figures")
	flag.Parse()

	if err := render(os.Stdout, *fig, *fus); err != nil {
		fmt.Fprintln(os.Stderr, err)
		var bad flagError
		if errors.As(err, &bad) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// render writes figure fig ("all" for every one) to w, with fus
// functional units for the trace figures, and stops at the first error.
// A bad fig or fus returns a flagError before anything is written.
func render(w io.Writer, fig string, fus int) error {
	if !slices.Contains(figs, fig) {
		return flagError(fmt.Sprintf("unknown figure %q", fig))
	}
	if fus < 1 {
		return flagError(fmt.Sprintf("bad FU count %d", fus))
	}
	var err error
	run := func(names []string, title string, f func() error) {
		if err != nil || (fig != "all" && !slices.Contains(names, fig)) {
			return
		}
		fmt.Fprintf(w, "==== %s ====\n", title)
		if err = f(); err == nil {
			fmt.Fprintln(w)
		}
	}

	run([]string{"1", "2", "3"}, "Figures 1-3 (model & core transformations)",
		func() error { return harness.Figure123(w) })
	run([]string{"5", "6"}, "Figures 5-6 (simple vs perfect pipelining)",
		func() error { return harness.Figure56(w, fus) })
	run([]string{"8", "11"}, "Figures 8 & 11 (Unifiable-ops vs Moveable-ops traces)",
		func() error { return harness.Figure8And11(w, fus) })
	run([]string{"9"}, "Figure 9 (gaps without prevention)",
		func() error { _, err := harness.Figure9(w); return err })
	run([]string{"13"}, "Figure 13 (gapless convergence)",
		func() error { _, err := harness.Figure13(w); return err })
	run([]string{"intro"}, "Section 1 example (GRiP vs modulo)",
		func() error { _, _, err := harness.IntroExample(w); return err })
	return err
}

package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/ps"
	"repro/internal/sched/batch"
	"repro/internal/unifiable"
)

// PaperExampleLoop is the seven-operation running example of the
// paper's Figures 8–13: operations a..g where a→b→c is the long chain
// (with a carried by a loop-carried dependence), d→e and f→g are short
// independent chains. Without gap prevention the short chains float
// arbitrarily far ahead of the recurrence, the gaps of Figure 9 form,
// and Perfect Pipelining never converges; with GRiP's Gapless-move test
// the schedule converges to the repeating pattern of Figure 13.
func PaperExampleLoop() *ir.LoopSpec {
	return &ir.LoopSpec{
		Name: "fig-example",
		Body: []ir.BodyOp{
			ir.BAddI("x", "x", 1),               // a (self loop-carried dep)
			ir.BMulI("y", "x", 3),               // b
			ir.BStore(ir.Aff("OUT", 1, 0), "y"), // c
			ir.BLoad("p", ir.Aff("P", 1, 0)),    // d
			ir.BStore(ir.Aff("Q", 1, 0), "p"),   // e
			ir.BLoad("r", ir.Aff("R", 1, 0)),    // f
			ir.BStore(ir.Aff("S", 1, 0), "r"),   // g
		},
		Step: 1, TripVar: "n", LiveIn: []string{"x"}, LiveOut: []string{"x"},
	}
}

// ExampleOpName maps the example loop's origin indices to the paper's
// mnemonics (loop control shown as + and cj).
func ExampleOpName(origin int) string {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "+", "cj"}
	if origin < len(names) {
		return names[origin]
	}
	return fmt.Sprintf("o%d", origin)
}

// IntroExampleLoop is the section 1 motivating example: a vectorizable
// loop with five operations on a four-unit machine. Integrated resource
// constraints let four iterations into the pipelined body and fill the
// machine; a modulo scheduler's integral initiation interval cannot.
func IntroExampleLoop() *ir.LoopSpec {
	return &ir.LoopSpec{
		Name: "intro-5ops",
		Body: []ir.BodyOp{
			ir.BLoad("t1", ir.Aff("A", 1, 0)),
			ir.BLoad("t2", ir.Aff("B", 1, 0)),
			ir.BMul("t3", "t1", "t2"),
			ir.BAdd("t4", "t3", "c0"),
			ir.BStore(ir.Aff("X", 1, 0), "t4"),
		},
		Step: 1, TripVar: "n", LiveIn: []string{"c0"},
	}
}

// FigureRows renders the main chain of a scheduled pipeline as the
// paper's row tables (Figures 5, 9, 13): one line per instruction with
// op mnemonics tagged by iteration.
func FigureRows(g *graph.Graph, name func(int) string, maxRows int) string {
	var b strings.Builder
	for i, n := range g.MainChain() {
		if maxRows > 0 && i >= maxRows {
			fmt.Fprintf(&b, "... (%d more rows)\n", len(g.MainChain())-maxRows)
			break
		}
		fmt.Fprintf(&b, "%3d: %s\n", i+1, g.RowString(n, name))
	}
	return b.String()
}

// Figure56 reproduces the pipelining comparison: simple pipelining of a
// fixed unwinding versus Perfect Pipelining of the same loop.
func Figure56(w io.Writer, fus int) error {
	spec := PaperExampleLoop()
	cfg := pipeline.DefaultConfig(machine.New(fus))
	cfg.Optimize = false

	simple, err := pipeline.SimplePipeline(context.Background(), spec, cfg, 4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 5 — four overlapped iterations (simple pipelining, %d FUs):\n", fus)
	fmt.Fprint(w, FigureRows(simple.Unwound.G, ExampleOpName, 0))
	fmt.Fprintf(w, "simple pipelining: %.2f cycles/iteration, speedup %.2f\n\n",
		simple.CyclesPerIter, simple.Speedup)

	perfect, err := pipeline.PerfectPipeline(context.Background(), spec, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 6 — Perfect Pipelining converges to a steady kernel:\n")
	fmt.Fprint(w, FigureRows(perfect.Unwound.G, ExampleOpName, 24))
	fmt.Fprintf(w, "perfect pipelining: converged=%v %v, %.2f cycles/iteration, speedup %.2f\n",
		perfect.Converged, perfect.Kernel, perfect.CyclesPerIter, perfect.Speedup)
	return nil
}

// Figure9 reproduces the gap divergence: scheduling the example loop
// with gap prevention disabled lets the short chains run ahead, the
// inter-iteration gaps grow, and no pattern forms.
func Figure9(w io.Writer) (*pipeline.Result, error) {
	spec := PaperExampleLoop()
	cfg := pipeline.DefaultConfig(machine.Infinite())
	cfg.Optimize = false
	cfg.GapPrevention = false
	cfg.Unwind = 16
	res, err := pipeline.PerfectPipeline(context.Background(), spec, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Figure 9 — schedule WITHOUT gap prevention (gaps grow, no convergence):")
	fmt.Fprint(w, FigureRows(res.Unwound.G, ExampleOpName, 28))
	fmt.Fprintf(w, "converged=%v (Perfect Pipelining cannot re-form a loop)\n", res.Converged)
	return res, nil
}

// Figure13 reproduces the gapless schedule: same loop, gap prevention
// on, converging to the new loop body.
func Figure13(w io.Writer) (*pipeline.Result, error) {
	spec := PaperExampleLoop()
	cfg := pipeline.DefaultConfig(machine.Infinite())
	cfg.Optimize = false
	res, err := pipeline.PerfectPipeline(context.Background(), spec, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Figure 13 — GRiP schedule WITH gap prevention (converges):")
	fmt.Fprint(w, FigureRows(res.Unwound.G, ExampleOpName, 24))
	fmt.Fprintf(w, "converged=%v %v — the repeating rows become the new loop body\n",
		res.Converged, res.Kernel)
	return res, nil
}

// Figure8And11 prints scheduling traces with the per-node candidate
// sets: the Unifiable-ops sets of Figure 8 and the Moveable-ops sets of
// Figure 11, on the same example program.
func Figure8And11(w io.Writer, fus int) error {
	spec := PaperExampleLoop()

	format := func(ops []*ir.Op) string {
		var parts []string
		for i, op := range ops {
			if i >= 12 {
				parts = append(parts, "...")
				break
			}
			parts = append(parts, fmt.Sprintf("%s%d", ExampleOpName(op.Origin), op.Iter))
		}
		return "(" + strings.Join(parts, ",") + ")"
	}

	fmt.Fprintf(w, "Figure 8 — Unifiable-ops scheduling trace (%d FUs):\n", fus)
	uw, err := pipeline.Unwind(spec, 4)
	if err != nil {
		return err
	}
	g := uw.BuildGraph()
	ddg := deps.Build(uw.Ops)
	ctx := ps.NewCtx(g, machine.New(fus), uw.ExitLive)
	row := 0
	_, err = unifiable.Schedule(ctx, uw.Ops, deps.NewPriority(ddg), unifiable.Options{
		TraceNode: func(n *graph.Node, set []*ir.Op) {
			if row < 14 {
				fmt.Fprintf(w, "  node n%-3d unifiable=%s\n", n.ID, format(set))
			}
			row++
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, "  final schedule:\n")
	fmt.Fprint(w, indent(FigureRows(g, ExampleOpName, 14), "  "))

	fmt.Fprintf(w, "\nFigure 11 — GRiP scheduling trace with Moveable-ops sets (%d FUs):\n", fus)
	cfg := pipeline.DefaultConfig(machine.New(fus))
	cfg.Optimize = false
	cfg.Unwind = 4
	row = 0
	cfg.TraceNode = func(n *graph.Node, set []*ir.Op) {
		if row < 14 {
			fmt.Fprintf(w, "  node n%-3d moveable=%s\n", n.ID, format(set))
		}
		row++
	}
	res, err := pipeline.PerfectPipeline(context.Background(), spec, cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, "  final schedule:\n")
	fmt.Fprint(w, indent(FigureRows(res.Unwound.G, ExampleOpName, 14), "  "))
	return nil
}

// IntroExample contrasts GRiP against modulo scheduling on the section 1
// example, returning both speedups. Both cells run through the batch
// engine and the process-wide metrics cache — everything printed here
// is in the normalized metrics, so a rerun in the same process
// schedules nothing.
func IntroExample(w io.Writer) (grip, mod float64, err error) {
	spec := IntroExampleLoop()
	m := machine.New(4)
	jobs := []batch.Job{
		{Technique: "grip", Spec: spec, Machine: m},
		{Technique: "modulo", Spec: spec, Machine: m},
	}
	outs, err := batch.Run(context.Background(), jobs, batch.Options{Cache: defaultCache})
	if err != nil {
		return 0, 0, err
	}
	for _, o := range outs {
		if o.Err != nil {
			return 0, 0, o.Err
		}
	}
	g, mo := outs[0].Result, outs[1].Result
	fmt.Fprintf(w, "Section 1 example — %d ops, 4 FUs:\n", len(spec.Body))
	fmt.Fprintf(w, "  GRiP perfect pipelining: kernel %d rows / %d iters, %.3f cycles/iter, speedup %.2f\n",
		g.KernelRows, g.KernelIterSpan, g.CyclesPerIter, g.Speedup)
	fmt.Fprintf(w, "  modulo scheduling:       II=%d (integral), speedup %.2f\n",
		mo.KernelRows, mo.Speedup)
	fmt.Fprintf(w, "  GRiP lets %d iterations into the loop body; modulo's local view cannot.\n",
		g.KernelIterSpan)
	return g.Speedup, mo.Speedup, nil
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// Figure123 renders the structural transformation figures: an IBM VLIW
// tree instruction (Figure 1) and before/after of move-op and move-cj
// (Figures 2 and 3) on tiny graphs.
func Figure123(w io.Writer) error {
	al := ir.NewAlloc()
	g := graph.New(al)
	r1, r2, r3 := al.Reg("r1"), al.Reg("r2"), al.Reg("r3")

	n1 := g.NewNode()
	n2 := g.NewNode()
	n3 := g.NewNode()
	cj1 := &ir.Op{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r1}, Imm: 0, BImm: true, Rel: ir.Gt}
	cj2 := &ir.Op{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r2}, Imm: 0, BImm: true, Rel: ir.Gt}
	tl, fl := g.InsertBranchAtLeaf(n1.Root, cj1, n2, nil)
	g.InsertBranchAtLeaf(fl, cj2, n3, nil)
	g.AddOp(&ir.Op{ID: al.OpID(), Kind: ir.Add, Dst: r3, Src: [2]ir.Reg{r1, r2}}, n1.Root)
	g.AddOp(&ir.Op{ID: al.OpID(), Kind: ir.Const, Dst: r2, Imm: 7}, tl)
	g.Entry = n1
	fmt.Fprintln(w, "Figure 1 — an IBM VLIW instruction is a tree of conditional jumps")
	fmt.Fprintln(w, "with operations attached to the vertices of the selected path:")
	fmt.Fprintf(w, "  %s\n\n", g.NodeString(n1))

	// Figure 2: move-op.
	al2 := ir.NewAlloc()
	g2 := graph.New(al2)
	x, y := al2.Reg("x"), al2.Reg("y")
	opA := &ir.Op{ID: al2.OpID(), Kind: ir.Const, Dst: x, Imm: 1}
	opB := &ir.Op{ID: al2.OpID(), Kind: ir.Const, Dst: y, Imm: 2}
	m1 := graph.AppendOp(g2, nil, opA)
	graph.AppendOp(g2, m1, opB)
	fmt.Fprintln(w, "Figure 2 — move-op(From,To,Op,Path):")
	fmt.Fprintf(w, "  before:\n%s", indent(g2.String(), "    "))
	ctx := ps.NewCtx(g2, machine.New(2), nil)
	if blk := ctx.TryMoveOpUp(opB, true, nil); blk.Kind != ps.BlockNone {
		return fmt.Errorf("figure 2 move failed: %v", blk.Kind)
	}
	fmt.Fprintf(w, "  after:\n%s\n", indent(g2.String(), "    "))

	// Figure 3: move-cj with node splitting.
	al3 := ir.NewAlloc()
	g3 := graph.New(al3)
	p, q := al3.Reg("p"), al3.Reg("q")
	arr := al3.Array("M")
	opC := &ir.Op{ID: al3.OpID(), Kind: ir.Const, Dst: p, Imm: 3}
	k1 := graph.AppendOp(g3, nil, opC)
	cj := &ir.Op{ID: al3.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{q}, Imm: 5, BImm: true, Rel: ir.Lt}
	k2 := graph.AppendBranch(g3, k1, cj, nil)
	st := &ir.Op{ID: al3.OpID(), Kind: ir.Store, Src: [2]ir.Reg{p}, Mem: ir.MemRef{Array: arr, Index: 0}}
	graph.AppendOp(g3, k2, st)
	// Give the branch node a root op so the split clones it to the drain.
	add := &ir.Op{ID: al3.OpID(), Kind: ir.Add, Dst: q, Src: [2]ir.Reg{p}, Imm: 1, BImm: true}
	g3.AddOp(add, k2.Root)
	fmt.Fprintln(w, "Figure 3 — move-cj(From,To,Op,Path) splits the source node:")
	fmt.Fprintf(w, "  before:\n%s", indent(g3.String(), "    "))
	ctx3 := ps.NewCtx(g3, machine.New(4), nil)
	if blk := ctx3.TryMoveCJUp(cj, true); blk.Kind != ps.BlockNone {
		return fmt.Errorf("figure 3 move failed: %v", blk.Kind)
	}
	fmt.Fprintf(w, "  after (false side is the cloned drain):\n%s", indent(g3.String(), "    "))
	return nil
}

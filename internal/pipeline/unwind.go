// Package pipeline implements Perfect Pipelining (paper section 2): the
// loop body is unwound a fixed number of times with per-iteration
// register renaming, compacted by a resource-constrained scheduler, and
// the steady-state pattern of the resulting schedule becomes the new
// loop body. The package also implements the paper's redundant-operation
// removal (section 4) and simple fixed-unwind pipelining for the
// Figure 6 comparison.
package pipeline

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ir"
)

// Unwound is a loop unwound U times into a sequential chain, one
// operation per instruction, with per-iteration SSA renaming (fresh
// registers per iteration, making every cross-iteration register
// anti/output dependence disappear — the effect renaming would otherwise
// achieve during scheduling).
type Unwound struct {
	Spec  *ir.LoopSpec
	U     int
	Alloc *ir.Alloc

	// Ops are the schedulable operations in sequential order: per
	// iteration the body ops, then the counter increment, then the
	// loop-back conditional jump.
	Ops []*ir.Op

	// G is the program graph, available after BuildGraph.
	G *graph.Graph

	// LiveIn maps live-in variable names (plus the counter and trip
	// variable) to their registers; the initial state must define them.
	LiveIn map[string]ir.Reg
	// LiveOut maps live-out variable names to the registers holding
	// their final values after any exit (the epilogue copy targets).
	LiveOut map[string]ir.Reg
	// ExitLive is the register-set view of LiveOut for the write-live
	// tests.
	ExitLive map[ir.Reg]bool

	// epilogues[i] lists, per live-out variable order, the register
	// holding the variable's value after iteration i completes.
	epilogues [][]ir.Reg
	// liveOutNames fixes the variable order used by epilogues.
	liveOutNames []string

	// removed counts operations eliminated by Optimize.
	removed int
}

// Unwind unwinds spec U times. The register allocation order is
// deterministic, so two Unwind calls with identical arguments produce
// identically-numbered programs (the test harness relies on this to
// compare a scheduled graph against a freshly built reference).
func Unwind(spec *ir.LoopSpec, u int) (*Unwound, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if u < 1 {
		return nil, fmt.Errorf("pipeline: unwind factor %d < 1", u)
	}
	al := ir.NewAlloc()
	uw := &Unwound{
		Spec:     spec,
		U:        u,
		Alloc:    al,
		LiveIn:   map[string]ir.Reg{},
		LiveOut:  map[string]ir.Reg{},
		ExitLive: map[ir.Reg]bool{},
	}

	env := map[string]ir.Reg{}
	bind := func(v string) ir.Reg {
		if r, ok := env[v]; ok {
			return r
		}
		r := al.Reg()
		env[v] = r
		uw.LiveIn[v] = r
		return r
	}
	bind(ir.CounterVar)
	bind(spec.TripVar)
	for _, v := range spec.LiveIn {
		bind(v)
	}
	for _, v := range spec.LiveOut {
		uw.liveOutNames = append(uw.liveOutNames, v)
		r := al.Reg()
		uw.LiveOut[v] = r
		uw.ExitLive[r] = true
		// A live-out variable that is not also live-in may be read by
		// the epilogue before its first definition when the trip count
		// is tiny; bind it so the register exists.
		bind(v)
	}

	mem := func(m ir.BodyRef, iter int) ir.MemRef {
		arr := al.Array(m.Array)
		if m.IndexVar != "" {
			return ir.MemRef{Array: arr, IndexReg: env[m.IndexVar], Index: m.Off}
		}
		k := spec.Start + int64(iter)*spec.Step
		return ir.MemRef{Array: arr, Index: m.KCoef*k + m.Off}
	}

	for iter := 0; iter < u; iter++ {
		for oi, b := range spec.Body {
			op := &ir.Op{ID: al.OpID(), Origin: oi, Iter: iter, Kind: b.Kind, Rel: ir.Lt}
			switch b.Kind {
			case ir.Const:
				op.Imm = b.Imm
			case ir.Copy:
				op.Src[0] = env[b.A]
			case ir.Add, ir.Sub, ir.Mul, ir.Div:
				op.Src[0] = env[b.A]
				if b.UseImm {
					op.BImm = true
					op.Imm = b.Imm
				} else {
					op.Src[1] = env[b.B]
				}
			case ir.Load:
				op.Mem = mem(b.Mem, iter)
			case ir.Store:
				op.Src[0] = env[b.A]
				op.Mem = mem(b.Mem, iter)
			default:
				return nil, fmt.Errorf("pipeline: unsupported body op kind %v", b.Kind)
			}
			if b.Dst != "" {
				op.Dst = al.Reg()
				env[b.Dst] = op.Dst
			}
			uw.Ops = append(uw.Ops, op)
		}
		// Loop control: k' = k + Step ; continue while k' < trip.
		kNext := al.Reg()
		inc := &ir.Op{ID: al.OpID(), Origin: len(spec.Body), Iter: iter,
			Kind: ir.Add, Dst: kNext, Src: [2]ir.Reg{env[ir.CounterVar]}, Imm: spec.Step, BImm: true}
		env[ir.CounterVar] = kNext
		uw.Ops = append(uw.Ops, inc)
		cj := &ir.Op{ID: al.OpID(), Origin: len(spec.Body) + 1, Iter: iter,
			Kind: ir.CJ, Src: [2]ir.Reg{kNext, env[spec.TripVar]}, Rel: ir.Lt}
		uw.Ops = append(uw.Ops, cj)

		// Snapshot the post-iteration values the exit path must save.
		snap := make([]ir.Reg, len(uw.liveOutNames))
		for vi, v := range uw.liveOutNames {
			snap[vi] = env[v]
		}
		uw.epilogues = append(uw.epilogues, snap)
	}
	return uw, nil
}

// BuildGraph constructs the sequential program graph for the (possibly
// optimized) operation list: one op per node, each conditional jump's
// false side leading to that iteration's epilogue (frozen live-out
// copies) and the final continue edge to the last epilogue.
func (u *Unwound) BuildGraph() *graph.Graph {
	g := graph.New(u.Alloc)
	g.Label = u.Spec.Name + "/" + u.Spec.Fingerprint()[:8]
	u.G = g
	var tail *graph.Node
	for _, op := range u.Ops {
		if op.IsBranch() {
			exit := u.buildEpilogue(g, op.Iter)
			tail = graph.AppendBranch(g, tail, op, exit)
			continue
		}
		tail = graph.AppendOp(g, tail, op)
	}
	// Continue side after the last unwound iteration: same observable
	// values as exiting right there.
	if tail != nil && len(u.liveOutNames) > 0 {
		final := u.buildEpilogue(g, u.U-1)
		g.RetargetLeaf(graph.ContinueLeaf(tail), final)
	}
	return g
}

// buildEpilogue creates the frozen live-out copy node for an exit taken
// after iteration iter, or nil when nothing is live out.
func (u *Unwound) buildEpilogue(g *graph.Graph, iter int) *graph.Node {
	if len(u.liveOutNames) == 0 {
		return nil
	}
	n := g.NewNode()
	n.Drain = true
	for vi, v := range u.liveOutNames {
		cp := &ir.Op{
			ID:     u.Alloc.OpID(),
			Origin: 1000 + vi,
			Iter:   ir.NoIter,
			Index:  ir.NoIndex,
			Kind:   ir.Copy,
			Dst:    u.LiveOut[v],
			Src:    [2]ir.Reg{u.epilogues[iter][vi]},
			Frozen: true,
		}
		g.AddOp(cp, n.Root)
	}
	return n
}

// Removed reports how many operations redundant-operation removal
// eliminated.
func (u *Unwound) Removed() int { return u.removed }

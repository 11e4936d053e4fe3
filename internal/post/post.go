// Package post implements the POST baseline of section 4 (Potasman'91):
// an "unconstrained" software pipelining technique that first applies
// GRiP scheduling with infinite resources to obtain a pipelined loop and
// then applies resource constraints as a post-processing phase, breaking
// apart nodes that contain too many operations and allowing further
// (local) percolation to refill nodes the breaking left underutilized.
//
// The paper's point — and what this implementation reproduces — is that
// deferring resource constraints loses: the infinite-resource schedule
// commits to an iteration overlap the post-pass cannot revisit, breaking
// disrupts the steady state, and the refill percolation is a single
// local sweep with no global re-ranking, so utilization holes persist.
package post

import (
	"context"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/ps"
)

// refillWindow bounds how far below a node the refill sweep looks for
// operations — the "local" in local post-compaction.
const refillWindow = 3

// Pipeline runs the POST technique for spec on cfg.Machine: phase one is
// Perfect Pipelining at infinite resources (same gap prevention, same
// priorities), phase two breaks over-wide instructions, phase three
// refills locally. The returned result carries the post-pass schedule's
// kernel metrics.
func Pipeline(ctx context.Context, spec *ir.LoopSpec, cfg pipeline.Config) (*pipeline.Result, error) {
	res, err := pipeline.PerfectPipeline(ctx, spec, Phase1Config(cfg))
	if err != nil {
		return nil, err
	}
	return From(ctx, res, cfg)
}

// Phase1Config returns the unconstrained configuration POST's first
// phase schedules against: cfg with the functional-unit limit removed
// (branch slots are kept — they bound iteration retirement, not
// functional-unit packing). The phase-1 schedule depends only on the
// loop and this configuration, not on the eventual target width, which
// is what makes phase-1 results shareable across target machines.
func Phase1Config(cfg pipeline.Config) pipeline.Config {
	cfg.Machine = machine.Infinite().WithBranchSlots(cfg.Machine.BranchSlots)
	return cfg
}

// From applies POST's resource post-pass (break over-wide nodes, refill
// locally) to a phase-1 result produced with Phase1Config(cfg). It
// mutates res.Unwound in place and returns a result measured on the
// post-pass schedule; callers reusing one phase-1 result for several
// targets must pass fresh deep copies (pipeline.Result.Clone).
//
// ctx cancels the post-pass between nodes of the break and refill
// sweeps; on cancellation the (half-processed) unwound graph is
// abandoned and ctx's error returned.
func From(ctx context.Context, res *pipeline.Result, cfg pipeline.Config) (*pipeline.Result, error) {
	uw := res.Unwound
	g := uw.G
	// The DDG is rebuilt over the phase-1 schedule's current operand
	// state, so the break and refill passes rank by priority over the
	// registers phase 1's copy propagation and renaming left behind.
	pri := deps.NewPriority(deps.Build(uw.Ops))
	// One transformation context serves both passes, so CrossCheck
	// verifies their summary fast paths as it does core's.
	pctx := ps.NewCtx(g, cfg.Machine, uw.ExitLive)
	pctx.CrossCheck = cfg.CrossCheck

	breaks, err := breakNodes(ctx, pctx, pri)
	if err != nil {
		return nil, err
	}
	if err := refill(ctx, pctx, pri, breaks); err != nil {
		return nil, err
	}
	for _, n := range g.MainChain() {
		if g.Has(n) && !n.Drain {
			g.SpliceOutEmpty(n)
		}
	}

	// Re-measure the post-pass schedule.
	out := &pipeline.Result{Spec: res.Spec, U: res.U, Stats: res.Stats, Unwound: uw}
	out.Measure(g, cfg.Periods)
	return out, nil
}

// breakNodes walks the main chain top-down and demotes the
// lowest-priority demotable operations out of every over-wide node into
// freshly inserted break nodes below it, cascading so that no demoted
// operation lands beside a dependence partner.
func breakNodes(ctx context.Context, pctx *ps.Ctx, pri *deps.Priority) ([]*graph.Node, error) {
	g, m := pctx.G, pctx.M
	var all []*graph.Node
	if m.InfiniteOps() {
		return all, nil
	}
	chain := g.MainChain()
	for _, n := range chain {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !g.Has(n) || n.Drain {
			continue
		}
		var breaks []*graph.Node
		for !m.FitsOps(n.OpCount()) {
			op := pickDemotable(g, n, pri, pctx.ExitLive)
			if op == nil {
				break
			}
			demote(g, n, op, &breaks, m)
		}
		// Ops that cannot safely move below (stores guarded by the
		// node's own branch, values live on its exit paths) are instead
		// promoted into fresh rows above — an exact percolation move.
		if !m.FitsOps(n.OpCount()) {
			breaks = append(breaks, promoteExcess(pctx, n, pri)...)
		}
		all = append(all, breaks...)
	}
	return all, nil
}

// pickDemotable returns the lowest-priority operation of n that can be
// moved below the node without changing observable behaviour: it must
// commit only on the continue path, or be a non-store whose target is
// dead on every exit subtree it currently commits on.
func pickDemotable(g *graph.Graph, n *graph.Node, pri *deps.Priority, exitLive map[ir.Reg]bool) *ir.Op {
	var cands []*ir.Op
	cont := graph.ContinueLeaf(n)
	n.Walk(func(v *graph.Vertex) {
		for _, op := range v.Ops {
			if op.Frozen {
				continue
			}
			if v == cont {
				cands = append(cands, op)
				continue
			}
			if !v.OnPathTo(cont) {
				continue
			}
			if op.IsStore() {
				continue // commits on exit sides it would abandon
			}
			if defLiveOffPath(g, v, cont, op.Def(), exitLive) {
				continue
			}
			cands = append(cands, op)
		}
	})
	if len(cands) == 0 {
		return nil
	}
	pri.Rank(cands)
	return cands[len(cands)-1]
}

// defLiveOffPath reports whether reg is observable along any subtree
// hanging off the root-to-continue-leaf path at or below v.
func defLiveOffPath(g *graph.Graph, v *graph.Vertex, cont *graph.Vertex, reg ir.Reg, exitLive map[ir.Reg]bool) bool {
	for w := cont; w != nil && w != v; w = w.Parent() {
		if sib := w.Sibling(); sib != nil {
			if deps.LiveOnSubtree(g, sib, reg, exitLive) {
				return true
			}
		}
	}
	return false
}

// promoteExcess lifts the lowest-priority root operations of an
// over-wide node into fresh rows inserted above it, using the ordinary
// move-op transformation (which is exact for root ops). Returns the new
// rows so the refill pass can also consider them.
func promoteExcess(ctx *ps.Ctx, n *graph.Node, pri *deps.Priority) []*graph.Node {
	g, m := ctx.G, ctx.M
	var made []*graph.Node
	for !m.FitsOps(n.OpCount()) {
		pre := g.InsertBefore(n)
		made = append(made, pre)
		moved := false
		for !m.FitsOps(n.OpCount()) && m.FitsOps(pre.OpCount()+1) {
			cands := append([]*ir.Op(nil), n.Root.Ops...)
			pri.Rank(cands)
			var pick *ir.Op
			for i := len(cands) - 1; i >= 0; i-- {
				if cands[i].Frozen {
					continue
				}
				if ctx.TryMoveOpUp(cands[i], true, nil).Kind == ps.BlockNone {
					pick = cands[i]
					break
				}
			}
			if pick == nil {
				break
			}
			moved = true
		}
		if !moved {
			// Nothing movable: give up rather than loop forever.
			g.SpliceOutEmpty(pre)
			return made[:len(made)-1]
		}
	}
	return made
}

// demote moves op out of n into the first break node below n where it
// fits and conflicts with nothing already demoted, extending the break
// chain as needed.
func demote(g *graph.Graph, n *graph.Node, op *ir.Op, breaks *[]*graph.Node, m machine.Machine) {
	g.RemoveOp(op)
	for _, b := range *breaks {
		if !m.FitsOps(b.OpCount() + 1) {
			continue
		}
		if conflicts(b, op) {
			continue
		}
		g.AddOp(op, b.Root)
		return
	}
	// New break node after n (or after the last break node).
	last := n
	if len(*breaks) > 0 {
		last = (*breaks)[len(*breaks)-1]
	}
	leaf := graph.ContinueLeaf(last)
	var nb *graph.Node
	if leaf.Succ == nil {
		nb = g.NewNode()
		g.RetargetLeaf(leaf, nb)
	} else {
		nb = g.InsertBefore(leaf.Succ)
	}
	g.AddOp(op, nb.Root)
	*breaks = append(*breaks, nb)
}

func conflicts(b *graph.Node, op *ir.Op) bool {
	bad := false
	b.Walk(func(v *graph.Vertex) {
		for _, p := range v.Ops {
			if deps.Blocks(p, op) || deps.Blocks(op, p) {
				bad = true
			}
		}
	})
	return bad
}

// refill is phase three: one sweep over the nodes the breaking pass
// created — "allowing further percolation to fill any nodes that have
// become underutilized as a result of the breaking" — pulling operations
// up from the next few rows, in priority order, with no suspension
// machinery and no global re-ranking. The locality of this pass (it
// revisits neither the rest of the schedule nor its own decisions) is
// what the paper identifies as POST's weakness.
func refill(ctx context.Context, pctx *ps.Ctx, pri *deps.Priority, targets []*graph.Node) error {
	g, m := pctx.G, pctx.M
	for _, n := range targets {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !g.Has(n) || n.Drain {
			continue
		}
		for m.FitsOps(n.OpCount() + 1) {
			op := refillCandidate(g, pctx, n, pri)
			if op == nil {
				break
			}
			if !pullTo(pctx, n, op) {
				break
			}
		}
	}
	return nil
}

// refillCandidate finds the best op within the refill window below n
// that can take at least one upward step.
func refillCandidate(g *graph.Graph, ctx *ps.Ctx, n *graph.Node, pri *deps.Priority) *ir.Op {
	var cands []*ir.Op
	node := n
	for w := 0; w < refillWindow; w++ {
		next := node.NonDrainSucc()
		if next == nil {
			break
		}
		node = next
		node.Walk(func(v *graph.Vertex) {
			for _, op := range v.Ops {
				if !op.Frozen {
					cands = append(cands, op)
				}
			}
		})
	}
	pri.Rank(cands)
	for _, op := range cands {
		if ctx.CanStepUp(op, nil).Kind == ps.BlockNone {
			return op
		}
	}
	return nil
}

// pullTo advances op step by step until it reaches n or blocks.
func pullTo(ctx *ps.Ctx, n *graph.Node, op *ir.Op) bool {
	moved := false
	for ctx.G.NodeOf(op) != n {
		if ctx.StepUp(op).Kind != ps.BlockNone {
			return moved
		}
		moved = true
	}
	return true
}

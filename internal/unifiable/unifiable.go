// Package unifiable implements the Unifiable-ops scheduling baseline of
// section 3.1 (Figure 7), after Ebcioglu & Nicolau (ICS'89): for each
// node, the Unifiable-ops set contains the operations on the dominated
// subgraph that can immediately be moved all the way to the node by a
// sequence of PS transformations — i.e. operations with no serializing
// producer anywhere between the node and their current position.
//
// Scheduling a node fills it with the best unifiable operations. Because
// an operation only moves when it will arrive, no node below the current
// one can become a resource barrier — but the sets are expensive: they
// must be recomputed (or incrementally maintained) against the whole
// dominated region after every move. The package counts that work so the
// cost comparison with GRiP's trivially maintainable Moveable-ops sets
// can be benchmarked (the paper's main efficiency claim).
package unifiable

import (
	"fmt"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/ps"
)

// Options control the scheduler.
type Options struct {
	// TraceNode receives each node with its Unifiable-ops set (the
	// Figure 8 trace).
	TraceNode func(n *graph.Node, unifiable []*ir.Op)
}

// Stats reports scheduling work.
type Stats struct {
	NodesScheduled int
	Arrived        int
	// SetWork counts op-node dependence probes spent computing
	// Unifiable-ops sets — the term GRiP's Moveable-ops sets eliminate.
	SetWork int
	// Anomalies counts migrations that unexpectedly stalled mid-way
	// (e.g. a store pinned under a branch); the op is left where it
	// stopped.
	Anomalies int
}

// maxSteps bounds a run's migration steps, a non-termination guard.
const maxSteps = 2_000_000

type sched struct {
	ctx   *ps.Ctx
	inner *ps.Ctx // same graph, infinite intermediate resources
	pri   *deps.Priority
	opts  Options
	stats Stats
	steps int
}

// Schedule fills each node top-down with its best unifiable operations
// (Figure 7).
func Schedule(ctx *ps.Ctx, ops []*ir.Op, pri *deps.Priority, opts Options) (Stats, error) {
	inner := *ctx
	inner.M = machine.Infinite().WithBranchSlots(ctx.M.BranchSlots)
	s := &sched{ctx: ctx, inner: &inner, pri: pri, opts: opts}

	g := ctx.G
	for n := g.Entry; n != nil; {
		if n.Drain {
			break
		}
		if err := s.scheduleNode(n, ops); err != nil {
			return s.stats, err
		}
		s.stats.NodesScheduled++
		n = n.NonDrainSucc()
	}
	for _, n := range g.MainChain() {
		if g.Has(n) && !n.Drain {
			g.SpliceOutEmpty(n)
		}
	}
	return s.stats, nil
}

func (s *sched) scheduleNode(n *graph.Node, ops []*ir.Op) error {
	for {
		if s.steps > maxSteps {
			return fmt.Errorf("unifiable: exceeded %d steps", maxSteps)
		}
		opRoom := s.ctx.M.FitsOps(n.OpCount() + 1)
		brRoom := s.ctx.M.FitsBranches(n.BranchCount() + 1)
		if !opRoom && !brRoom {
			return nil
		}
		set := s.unifiableSet(n, ops)
		if s.opts.TraceNode != nil {
			s.opts.TraceNode(n, set)
		}
		var pick *ir.Op
		for _, op := range set {
			if op.IsBranch() && brRoom || !op.IsBranch() && opRoom {
				pick = op
				break
			}
		}
		if pick == nil {
			return nil
		}
		if !s.migrate(n, pick) {
			s.stats.Anomalies++
			return nil
		}
		s.stats.Arrived++
	}
}

// unifiableSet computes Unifiable-ops(n) from scratch, in ranked order.
// An op qualifies when no operation located in any node from n
// (exclusive) down to the op's node serializes against it, and its path
// is not blocked by branch-crossing restrictions (a store cannot cross a
// conditional jump, and a conditional jump must be at its node's root).
// "Below n" is the position-key test core's frontier uses: main-chain
// nodes compare by Pos exactly as by chain order.
func (s *sched) unifiableSet(n *graph.Node, ops []*ir.Op) []*ir.Op {
	g := s.ctx.G
	var set []*ir.Op
	for _, op := range ops {
		if op.Frozen {
			continue
		}
		home := g.NodeOf(op)
		if home == nil || home.Drain || home.Pos() <= n.Pos() {
			continue
		}
		if s.clearPathTo(n, op, home) {
			set = append(set, op)
		}
	}
	s.pri.Rank(set)
	return set
}

// clearPathTo reports whether op can reach n from home given data
// dependences and branch-crossing rules, charging SetWork per probe.
func (s *sched) clearPathTo(n *graph.Node, op *ir.Op, home *graph.Node) bool {
	g := s.ctx.G
	for m := home; m != n; m = m.Pred() {
		if m == nil {
			return false // reached the entry: no path up to n
		}
		if m != home {
			crossesBranch := m.BranchCount() > 0
			if crossesBranch && op.IsStore() {
				return false
			}
		}
		ok := true
		m.Walk(func(v *graph.Vertex) {
			for _, p := range v.Ops {
				if p == op {
					continue
				}
				s.stats.SetWork++
				if deps.Serializes(p, op) {
					ok = false
				}
			}
			if v.CJ != nil && v.CJ != op {
				s.stats.SetWork++
				if deps.Serializes(v.CJ, op) {
					ok = false
				}
				if op.IsBranch() && m != home {
					// Would have to pass another jump: branch order
					// is fixed.
					ok = false
				}
			}
		})
		if !ok {
			return false
		}
		if m == home && op.IsBranch() && g.Where(op) != home.Root {
			return false
		}
	}
	return true
}

// migrate moves op all the way to n, ignoring intermediate resource
// limits (the defining property of the Unifiable-ops method: the op is
// guaranteed to arrive, so no barrier can form below), while enforcing
// n's own capacity through the outer machine on the final placement.
func (s *sched) migrate(n *graph.Node, op *ir.Op) bool {
	g := s.ctx.G
	for g.NodeOf(op) != n {
		s.steps++
		if s.steps > maxSteps {
			return false
		}
		ctx := s.inner
		// The final hop into n must respect n's real capacity.
		if cur := g.NodeOf(op); cur != nil && cur.Pred() == n && g.Where(op) == cur.Root {
			ctx = s.ctx
		}
		if ctx.StepUp(op).Kind != ps.BlockNone {
			return false
		}
	}
	return true
}

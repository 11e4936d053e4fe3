package deps

import (
	"repro/internal/graph"
	"repro/internal/ir"
)

// LiveAtEntry reports whether register r may be read before being
// overwritten on some execution path starting at node n (inclusive).
// exitLive lists registers observable at program exit.
//
// Reads inside an instruction happen at instruction entry (parallel
// fetch), so any use of r anywhere in a node's tree makes r live at that
// node's entry. A definition kills r only when it commits on every path
// through the node, i.e. when the defining operation sits at the root
// vertex. Each chain node's facts come from a walk of its tree;
// instruction trees are small (a few ops per node on the scheduled
// loops), so the walk is cheaper to keep than a summary tier.
func LiveAtEntry(g *graph.Graph, n *graph.Node, r ir.Reg, exitLive map[ir.Reg]bool) bool {
	if r == ir.NoReg {
		return false
	}
	// Epoch marks instead of a per-call seen map, and VisitLeaves
	// instead of the allocating Leaves slice: this query runs inside the
	// schedulers' hoist-legality probes, which must not allocate.
	return liveAtEntry(g, n, r, exitLive, g.BeginVisit())
}

func liveAtEntry(g *graph.Graph, m *graph.Node, r ir.Reg, exitLive map[ir.Reg]bool, epoch uint64) bool {
	if m == nil {
		return exitLive[r]
	}
	if m.Visited(epoch) {
		return false
	}
	if readsInTree(m.Root, r) {
		return true
	}
	for _, op := range m.Root.Ops {
		if op.Def() == r {
			// Root-vertex commit: kills r on every path through m.
			return false
		}
	}
	live := false
	m.VisitLeaves(func(l *graph.Vertex) bool {
		if liveAtEntry(g, l.Succ, r, exitLive, epoch) {
			live = true
			return false
		}
		return true
	})
	return live
}

// readsInTree reports whether any operation in the subtree rooted at v,
// conditional jumps included, reads r.
func readsInTree(v *graph.Vertex, r ir.Reg) bool {
	for _, op := range v.Ops {
		if op.ReadsReg(r) {
			return true
		}
	}
	if v.IsLeaf() {
		return false
	}
	return v.CJ.ReadsReg(r) || readsInTree(v.True, r) || readsInTree(v.False, r)
}

// LiveOnSubtree reports whether register r is observable when control
// flows through the instruction subtree rooted at v: either some
// downstream node (reached from a leaf under v) may read r before
// killing it, or the program exits under v with r in exitLive. Uses
// *inside* the node fetch at entry and are unaffected by commits, so
// only downstream liveness matters. This is the write-live test for
// speculative hoisting past a branch.
func LiveOnSubtree(g *graph.Graph, v *graph.Vertex, r ir.Reg, exitLive map[ir.Reg]bool) bool {
	if r == ir.NoReg {
		return false
	}
	return liveOnSubtree(g, v, r, exitLive)
}

func liveOnSubtree(g *graph.Graph, w *graph.Vertex, r ir.Reg, exitLive map[ir.Reg]bool) bool {
	if w.IsLeaf() {
		if w.Succ == nil {
			return exitLive[r]
		}
		return LiveAtEntry(g, w.Succ, r, exitLive)
	}
	return liveOnSubtree(g, w.True, r, exitLive) || liveOnSubtree(g, w.False, r, exitLive)
}

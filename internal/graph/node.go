package graph

import (
	"repro/internal/ir"
)

// Node is one VLIW instruction. The zero value is not usable; a Graph
// creates nodes (NewNode, InsertBefore, AdoptSubtree).
type Node struct {
	ID   int
	Root *Vertex

	// Drain marks nodes on loop-exit paths produced by move-cj node
	// splitting. Drain nodes are executed by the simulator but never
	// rescheduled; they form Perfect Pipelining's post-loop code.
	Drain bool

	// pos is an order-maintenance key: main-chain nodes compare by pos
	// exactly as by chain order. Maintained by the Graph on insertion
	// so schedulers get O(1) "is this node below that one" tests
	// without recomputing traversal orders after every mutation.
	pos float64

	// opCount/branchCount cache the instruction tree's operation and
	// conditional-jump totals. Maintained by the Graph mutators (AddOp,
	// RemoveOp, InsertBranchAtLeaf, AdoptSubtree) so the schedulers'
	// per-step resource checks are O(1) instead of tree walks; Validate
	// cross-checks them against a recount. int32 keeps Node at 96 bytes
	// with touched.
	opCount     int32
	branchCount int32

	// iterCounts caches the schedulable (non-frozen) operation totals
	// per iteration (iterCounts[iter+1]; slot 0 holds NoIter ops).
	// Maintained by the same mutators (ops are frozen before placement),
	// so the Gapless-move test's IterCount queries are O(1) slice reads
	// instead of tree walks; Validate cross-checks them against a
	// recount. See DESIGN.md.
	iterCounts []int32

	// in is the one leaf whose edge enters the node, nil when none does:
	// one incoming edge per node is a graph invariant (see link). The
	// Graph's link/unlink maintain it on every leaf-edge mutation, and
	// Validate rebuilds it from the leaf walk. Successors need no field:
	// they are read off the node's own leaves.
	in *Vertex

	// seenEpoch supports allocation-free graph traversals: a traversal
	// obtains a fresh epoch from Graph.BeginVisit and marks nodes with
	// Visited instead of building a map.
	seenEpoch uint64

	// g is the owning graph, set at creation and never changed. The
	// location fast path (Graph.loc) uses it to reject placements that
	// belong to a different graph — an op cloned into a new graph, or
	// queried against a graph it was never part of.
	g *Graph

	// touched is the graph version produced by the last mutation of the
	// node's tree, ops, counts, position or incoming leaf (Touched).
	// Every mutator stamps the nodes it changes right after its bump.
	touched uint64
}

// In returns the leaf whose edge enters n, or nil when nothing does
// (the entry, or a node not linked yet). O(1).
func (n *Node) In() *Vertex { return n.in }

// Pred returns the node holding In(), or nil: n's unique predecessor.
func (n *Node) Pred() *Node {
	if n.in == nil {
		return nil
	}
	return n.in.node
}

// Pos returns the node's order-maintenance key. Larger means later on
// the main chain. Keys of drain nodes are not meaningful.
func (n *Node) Pos() float64 { return n.pos }

// Touched returns the graph version produced by the last mutation of
// n's tree, ops, counts, position or incoming leaf: the node's change
// stamp. A result computed from n at version v is still n's while
// Touched() <= v. O(1).
func (n *Node) Touched() uint64 { return n.touched }

// Visited marks n as seen in traversal epoch e and reports whether it
// had already been marked. Epochs come from Graph.BeginVisit; a
// traversal must finish with one epoch before another begins.
func (n *Node) Visited(e uint64) bool {
	if n.seenEpoch == e {
		return true
	}
	n.seenEpoch = e
	return false
}

// Walk visits every vertex of the instruction tree in preorder.
func (n *Node) Walk(f func(*Vertex)) {
	if n.Root != nil {
		n.Root.walk(f)
	}
}

// OpCount returns the number of non-branch operations in the tree; this
// is the number of functional units the instruction occupies. O(1): the
// count is maintained by the Graph mutators.
func (n *Node) OpCount() int { return int(n.opCount) }

// BranchCount returns the number of conditional jumps in the tree. O(1).
func (n *Node) BranchCount() int { return int(n.branchCount) }

// noteOpAdded updates the per-iteration counts for an op (branches
// included) just placed somewhere in n's tree.
func (n *Node) noteOpAdded(op *ir.Op) {
	if op.Frozen {
		return
	}
	n.bumpIter(op.Iter, 1)
}

// noteOpRemoved is the inverse of noteOpAdded.
func (n *Node) noteOpRemoved(op *ir.Op) {
	if op.Frozen {
		return
	}
	n.bumpIter(op.Iter, -1)
}

func (n *Node) bumpIter(iter int, d int32) {
	i := iter + 1 // slot 0 is NoIter
	if i < 0 {
		panic("graph: op with iteration below NoIter")
	}
	if i >= len(n.iterCounts) {
		// Geometric growth with a zeroed tail (Validate tolerates
		// trailing zero slots).
		c := 2 * len(n.iterCounts)
		if c < i+1 {
			c = i + 1
		}
		grown := make([]int32, c)
		copy(grown, n.iterCounts)
		n.iterCounts = grown
	}
	n.iterCounts[i] += d
	if n.iterCounts[i] < 0 {
		panic("graph: per-iteration op count underflow")
	}
}

// recountOps recomputes the operation total by walking the tree
// (Validate's cross-check of the cached count).
func (n *Node) recountOps() int {
	c := 0
	n.Walk(func(v *Vertex) { c += len(v.Ops) })
	return c
}

// recountBranches recomputes the conditional-jump total by walking.
func (n *Node) recountBranches() int {
	c := 0
	n.Walk(func(v *Vertex) {
		if v.CJ != nil {
			c++
		}
	})
	return c
}

// recountIters recomputes the per-iteration schedulable counts by
// walking, keyed exactly like iterCounts (Validate's cross-check of the
// incremental cache).
func (n *Node) recountIters() map[int]int32 {
	iters := map[int]int32{}
	count := func(o *ir.Op) {
		if !o.Frozen {
			iters[o.Iter+1]++
		}
	}
	n.Walk(func(v *Vertex) {
		for _, o := range v.Ops {
			count(o)
		}
		if v.CJ != nil {
			count(v.CJ)
		}
	})
	return iters
}

// Branches returns the conditional-jump ops in the tree, root first.
func (n *Node) Branches() []*ir.Op {
	var cjs []*ir.Op
	n.Walk(func(v *Vertex) {
		if v.CJ != nil {
			cjs = append(cjs, v.CJ)
		}
	})
	return cjs
}

// VisitLeaves visits the leaf vertices in left-first preorder (true
// side first), stopping early when f returns false. It reports whether
// the visit ran to completion. Allocation-free.
func (n *Node) VisitLeaves(f func(*Vertex) bool) bool {
	return n.Root.VisitLeaves(f)
}

// VisitLeaves visits the leaves of the subtree rooted at v (nil allowed)
// as Node.VisitLeaves does for a whole tree. Allocation-free.
func (v *Vertex) VisitLeaves(f func(*Vertex) bool) bool {
	if v == nil {
		return true
	}
	if v.IsLeaf() {
		return f(v)
	}
	if !v.True.VisitLeaves(f) {
		return false
	}
	return v.False.VisitLeaves(f)
}

// VisitSuccessors calls f for every successor node, in the left-first
// preorder of the leaves that reach them, stopping early when f returns
// false. A node has one incoming edge, so no successor is reached by two
// leaves. The order depends only on the tree, so a graph and its Clone
// visit corresponding successors alike. Allocation-free.
//
// The gapless search and the park wakes visit successors on every
// probe, and most trees are a leaf or one branch over two leaves, so
// those two shapes are read without the callback walk (DESIGN.md §1).
// The shape comes from the tree, never the node's counts, so the visit
// is exact inside the op-home hook too.
func (n *Node) VisitSuccessors(f func(*Node) bool) {
	r := n.Root
	switch {
	case r.IsLeaf():
		if r.Succ != nil {
			f(r.Succ)
		}
	case r.True.IsLeaf() && r.False.IsLeaf():
		if t := r.True.Succ; t != nil && !f(t) {
			return
		}
		if e := r.False.Succ; e != nil {
			f(e)
		}
	default:
		n.VisitLeaves(func(l *Vertex) bool {
			return l.Succ == nil || f(l.Succ)
		})
	}
}

// NonDrainSucc returns the unique non-drain successor, or nil when the
// node has none or several (the main-chain step used by every
// scheduler's top-down traversal). O(leaves), allocation-free.
func (n *Node) NonDrainSucc() *Node {
	var next *Node
	ambiguous := false
	n.VisitSuccessors(func(s *Node) bool {
		if s.Drain {
			return true
		}
		if next != nil {
			ambiguous = true
			return false
		}
		next = s
		return true
	})
	if ambiguous {
		return nil
	}
	return next
}

// Empty reports whether the instruction holds no operations and no
// branches (an empty node with a single fall-through edge can be spliced
// out of the graph).
func (n *Node) Empty() bool {
	return n.OpCount() == 0 && n.BranchCount() == 0
}

// IterCount returns how many schedulable (non-frozen) operations from
// iteration iter are scheduled in this instruction (branches included);
// the Gapless-move test sits on it. O(1): the per-iteration counts are
// maintained incrementally by the Graph mutators.
func (n *Node) IterCount(iter int) int {
	if i := iter + 1; i >= 0 && i < len(n.iterCounts) {
		return int(n.iterCounts[i])
	}
	return 0
}

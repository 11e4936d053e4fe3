// Package graph implements the VLIW program graph of the paper's
// computation model (section 2): a directed graph whose nodes are
// instructions and whose edges represent control flow. Each instruction
// is a rooted tree of conditional jumps — the IBM VLIW model of Figure 1
// — with ordinary operations attached to tree vertices. An operation
// attached to a vertex commits only when the path selected by the
// conditionals passes through that vertex; every operation in the tree
// occupies a functional unit regardless of path, because results are
// computed before the path is known.
package graph

import (
	"repro/internal/ir"
)

// Vertex is one vertex of an instruction tree. A vertex carries zero or
// more non-branch operations and is either a leaf (Succ designates the
// next instruction, nil meaning program exit) or an internal branch
// vertex (CJ is a conditional-jump op with True/False subtrees).
type Vertex struct {
	Ops   []*ir.Op
	CJ    *ir.Op
	True  *Vertex
	False *Vertex
	Succ  *Node

	node   *Node
	parent *Vertex

	// sum is the vertex's incrementally maintained def/use summary (see
	// summary.go): register def/use may-masks for the vertex's own op
	// list, kept current by every Graph mutator and operand-rewrite
	// method — what the ps legality fast paths filter on.
	sum summary
}

// IsLeaf reports whether the vertex terminates the tree.
func (v *Vertex) IsLeaf() bool { return v.CJ == nil }

// Node returns the instruction the vertex belongs to.
func (v *Vertex) Node() *Node { return v.node }

// Parent returns the parent vertex, or nil at the root.
func (v *Vertex) Parent() *Vertex { return v.parent }

// Sibling returns the other child of the parent branch, or nil at the
// root.
func (v *Vertex) Sibling() *Vertex {
	p := v.parent
	if p == nil {
		return nil
	}
	if p.True == v {
		return p.False
	}
	return p.True
}

// walk visits the subtree rooted at v in root-to-leaf preorder.
func (v *Vertex) walk(f func(*Vertex)) {
	f(v)
	if v.True != nil {
		v.True.walk(f)
	}
	if v.False != nil {
		v.False.walk(f)
	}
}

// onRootPath reports whether v lies on the path from the node's root to
// target (inclusive of both).
func (v *Vertex) onRootPath(target *Vertex) bool {
	for t := target; t != nil; t = t.parent {
		if t == v {
			return true
		}
	}
	return false
}

// OnPathTo reports whether v lies on the path from the node's root to
// target (inclusive): operations at such vertices commit whenever
// control reaches target.
func (v *Vertex) OnPathTo(target *Vertex) bool { return v.onRootPath(target) }

// removeOp deletes op from the vertex op list. It reports whether the op
// was present.
func (v *Vertex) removeOp(op *ir.Op) bool {
	for i, o := range v.Ops {
		if o == op {
			v.Ops = append(v.Ops[:i], v.Ops[i+1:]...)
			return true
		}
	}
	return false
}

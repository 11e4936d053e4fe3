package graph

import (
	"repro/internal/ir"
)

// Chain construction helpers. The unwinder and the tests build the
// initial sequential program as a chain of nodes, one operation per node
// — "a program wherein each instruction contains a single operation"
// (paper section 2) — with conditional jumps whose false side leaves the
// chain (loop exit) and whose true side continues it.

// ContinueLeaf returns the leaf reached from the root by always taking
// the true side of branches: the continue-path leaf of a chain node.
func ContinueLeaf(n *Node) *Vertex {
	v := n.Root
	for !v.IsLeaf() {
		v = v.True
	}
	return v
}

// AppendOp creates a node holding op and links tail's continue leaf to
// it. With a nil tail the node becomes the graph entry. The new node is
// returned.
func AppendOp(g *Graph, tail *Node, op *ir.Op) *Node {
	n := g.NewNode()
	g.AddOp(op, n.Root)
	linkTail(g, tail, n)
	return n
}

// AppendBranch creates a node holding the conditional jump cj whose
// false side goes to exit (nil for program exit) and whose true side is
// left open for the next append. The new node is returned.
func AppendBranch(g *Graph, tail *Node, cj *ir.Op, exit *Node) *Node {
	n := g.NewNode()
	g.InsertBranchAtLeaf(n.Root, cj, nil, exit)
	linkTail(g, tail, n)
	return n
}

func linkTail(g *Graph, tail, n *Node) {
	if tail == nil {
		if g.Entry != nil {
			panic("graph: chain already has an entry")
		}
		g.Entry = n
		return
	}
	leaf := ContinueLeaf(tail)
	if leaf.Succ != nil {
		panic("graph: tail continue leaf already linked")
	}
	g.RetargetLeaf(leaf, n)
}

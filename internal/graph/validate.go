package graph

import (
	"fmt"

	"repro/internal/ir"
)

// Validate checks every structural invariant of the graph: tree shape,
// ownership pointers, operation placements, one incoming edge per node, and
// the single-definition-per-path rule of VLIW instructions. It walks
// the nodes in ID order and returns the first violation found, so the
// same graph always reports the same one. Tests call Validate after
// every transformation.
func (g *Graph) Validate() error {
	if g.Entry == nil {
		return fmt.Errorf("graph: nil entry")
	}
	if !g.Has(g.Entry) {
		return fmt.Errorf("graph: entry n%d not registered", g.Entry.ID)
	}

	in := make([]*Vertex, len(g.nodes)) // node ID -> the leaf whose edge enters it
	seenOps := map[*ir.Op]*Vertex{}

	for _, n := range g.nodes {
		if n == nil {
			continue
		}
		if n.Root == nil {
			return fmt.Errorf("n%d: nil root", n.ID)
		}
		if n.Root.parent != nil {
			return fmt.Errorf("n%d: root has parent", n.ID)
		}
		var err error
		var walk func(v *Vertex)
		walk = func(v *Vertex) {
			if err != nil {
				return
			}
			if v.node != n {
				err = fmt.Errorf("n%d: vertex owned by wrong node", n.ID)
				return
			}
			for _, op := range v.Ops {
				if op == nil {
					err = fmt.Errorf("n%d: nil op", n.ID)
					return
				}
				if op.IsBranch() {
					err = fmt.Errorf("n%d: branch op %v in op list", n.ID, op)
					return
				}
				if prev, dup := seenOps[op]; dup {
					err = fmt.Errorf("n%d: op %v placed twice (also n%d)", n.ID, op, prev.node.ID)
					return
				}
				seenOps[op] = v
				if g.loc(op) != v {
					err = fmt.Errorf("n%d: op %v location out of sync", n.ID, op)
					return
				}
			}
			if v.IsLeaf() {
				if v.True != nil || v.False != nil {
					err = fmt.Errorf("n%d: leaf with children", n.ID)
					return
				}
				if v.Succ != nil {
					if !g.Has(v.Succ) {
						err = fmt.Errorf("n%d: edge to deleted node n%d", n.ID, v.Succ.ID)
						return
					}
					if prev := in[v.Succ.ID]; prev != nil {
						err = fmt.Errorf("n%d: second edge into n%d (also from n%d)", n.ID, v.Succ.ID, prev.node.ID)
						return
					}
					in[v.Succ.ID] = v
				}
				return
			}
			if !v.CJ.IsBranch() {
				err = fmt.Errorf("n%d: non-branch op %v in CJ slot", n.ID, v.CJ)
				return
			}
			if prev, dup := seenOps[v.CJ]; dup {
				err = fmt.Errorf("n%d: branch %v placed twice (also n%d)", n.ID, v.CJ, prev.node.ID)
				return
			}
			seenOps[v.CJ] = v
			if g.loc(v.CJ) != v {
				err = fmt.Errorf("n%d: branch %v location out of sync", n.ID, v.CJ)
				return
			}
			if v.True == nil || v.False == nil {
				err = fmt.Errorf("n%d: branch vertex missing children", n.ID)
				return
			}
			if v.True.parent != v || v.False.parent != v {
				err = fmt.Errorf("n%d: child parent pointer wrong", n.ID)
				return
			}
			walk(v.True)
			walk(v.False)
		}
		walk(n.Root)
		if err != nil {
			return err
		}
		if got := n.recountOps(); got != n.OpCount() {
			return fmt.Errorf("n%d: cached op count %d, recount %d", n.ID, n.OpCount(), got)
		}
		if got := n.recountBranches(); got != n.BranchCount() {
			return fmt.Errorf("n%d: cached branch count %d, recount %d", n.ID, n.BranchCount(), got)
		}
		gotIters := n.recountIters()
		for i, c := range n.iterCounts {
			if c < 0 {
				return fmt.Errorf("n%d: negative count %d for iteration %d", n.ID, c, i-1)
			}
			if c != gotIters[i] {
				return fmt.Errorf("n%d: cached iter %d count %d, recount %d", n.ID, i-1, c, gotIters[i])
			}
		}
		for i, c := range gotIters {
			if c != 0 && (i >= len(n.iterCounts) || n.iterCounts[i] != c) {
				return fmt.Errorf("n%d: iteration %d holds %d schedulable ops, cache missed them", n.ID, i-1, c)
			}
		}
		if err := checkSingleDefPerPath(n); err != nil {
			return err
		}
		if err := checkUseMasks(n); err != nil {
			return err
		}
	}

	// Every op the walk reached resolves to its vertex (checked above);
	// the census catches ops still placed where the walk cannot reach
	// them — in a detached subtree never adopted, or a deleted node.
	if len(seenOps) != g.numPlaced {
		return fmt.Errorf("graph: numPlaced %d, walk reaches %d placed ops", g.numPlaced, len(seenOps))
	}

	// Each node's recorded incoming leaf must be the one the walk found
	// (same pattern as the op-count cross-check).
	for id, n := range g.nodes {
		if n != nil && n.in != in[id] {
			return fmt.Errorf("n%d: recorded incoming leaf differs from the leaf walk's", n.ID)
		}
	}
	return nil
}

// checkUseMasks cross-checks every vertex's incremental use mask
// against a from-scratch recomputation from the vertex's op list. Any
// mutation path that forgets to refresh a mask — including operand
// rewrites bypassing Graph.ReplaceUse — surfaces here, so every
// randomized test calling Validate inherits the invariant the ps
// move-past-read filter depends on.
func checkUseMasks(n *Node) (err error) {
	n.Walk(func(v *Vertex) {
		fresh := Vertex{Ops: v.Ops, CJ: v.CJ}
		fresh.recomputeUses()
		if err == nil && fresh.uses != v.uses {
			err = fmt.Errorf("n%d: vertex use mask out of sync", n.ID)
		}
	})
	return err
}

// checkSingleDefPerPath enforces that no root-to-leaf path of the
// instruction tree commits two writes to the same register: IBM VLIW
// stores all results along the selected path at once, so a double write
// would be ambiguous hardware-wise.
func checkSingleDefPerPath(n *Node) error {
	var defs []ir.Reg
	var walk func(v *Vertex) error
	walk = func(v *Vertex) error {
		mark := len(defs)
		for _, op := range v.Ops {
			if d := op.Def(); d != ir.NoReg {
				for _, prev := range defs {
					if prev == d {
						return fmt.Errorf("n%d: register r%d defined twice on one path", n.ID, d)
					}
				}
				defs = append(defs, d)
			}
		}
		if !v.IsLeaf() {
			if err := walk(v.True); err != nil {
				return err
			}
			if err := walk(v.False); err != nil {
				return err
			}
		}
		defs = defs[:mark]
		return nil
	}
	return walk(n.Root)
}

package graph

import (
	"fmt"

	"repro/internal/ir"
)

// Validate checks every structural invariant of the graph: tree shape,
// ownership pointers, operation placements, predecessor edge counts, and
// the single-definition-per-path rule of VLIW instructions. It returns
// the first violation found. Tests call Validate after every
// transformation.
func (g *Graph) Validate() error {
	if g.Entry == nil {
		return fmt.Errorf("graph: nil entry")
	}
	if !g.nodes[g.Entry] {
		return fmt.Errorf("graph: entry n%d not registered", g.Entry.ID)
	}

	recount := map[*Node]map[*Node]int{} // successor -> predecessor -> edges
	seenOps := map[*ir.Op]*Vertex{}

	for n := range g.nodes {
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
					if !g.nodes[v.Succ] {
						err = fmt.Errorf("n%d: edge to deleted node n%d", n.ID, v.Succ.ID)
						return
					}
					m := recount[v.Succ]
					if m == nil {
						m = map[*Node]int{}
						recount[v.Succ] = m
					}
					m[n]++
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
		if err := checkSummaries(n); err != nil {
			return err
		}
	}

	// Every op the walk reached resolves to its vertex (checked above);
	// the census catches ops still placed where the walk cannot reach
	// them — in a detached subtree never adopted, or a deleted node.
	if len(seenOps) != g.numPlaced {
		return fmt.Errorf("graph: numPlaced %d, walk reaches %d placed ops", g.numPlaced, len(seenOps))
	}

	// The incremental predecessor sets must match a full edge recount
	// (same pattern as the op-count cross-check).
	for n := range g.nodes {
		if err := checkPreds(g, n, recount[n]); err != nil {
			return err
		}
	}
	return nil
}

// checkPreds cross-checks one node's incremental predecessor set
// against the edge multiset rebuilt from the leaf walk.
func checkPreds(g *Graph, n *Node, want map[*Node]int) error {
	got := map[*Node]int{}
	err := error(nil)
	n.preds.visit(func(m *Node, c int32) bool {
		if c <= 0 {
			err = fmt.Errorf("n%d: pred entry for n%d with count %d", n.ID, m.ID, c)
			return false
		}
		if !g.nodes[m] {
			err = fmt.Errorf("n%d: pred entry for deleted node n%d", n.ID, m.ID)
			return false
		}
		if _, dup := got[m]; dup {
			err = fmt.Errorf("n%d: duplicate pred entry for n%d", n.ID, m.ID)
			return false
		}
		got[m] = int(c)
		return true
	})
	if err != nil {
		return err
	}
	for m, c := range want {
		if got[m] != c {
			return fmt.Errorf("n%d: pred count for n%d = %d, want %d", n.ID, m.ID, got[m], c)
		}
	}
	for m, c := range got {
		if want[m] != c {
			return fmt.Errorf("n%d: stale pred count for n%d = %d, want %d", n.ID, m.ID, c, want[m])
		}
	}
	return nil
}

// checkSummaries cross-checks every vertex's incremental def/use
// summary against a from-scratch recomputation from the vertex's op
// list. Any mutation path that forgets to refresh a summary — including
// operand rewrites bypassing Graph.ReplaceUse/RetargetDef — surfaces
// here, so every randomized test calling Validate inherits the
// invariant the ps fast-path filters depend on.
func checkSummaries(n *Node) (err error) {
	n.Walk(func(v *Vertex) {
		fresh := Vertex{Ops: v.Ops, CJ: v.CJ}
		fresh.recomputeOwn()
		if err == nil && fresh.sum != v.sum {
			err = fmt.Errorf("n%d: vertex def/use summary out of sync", n.ID)
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

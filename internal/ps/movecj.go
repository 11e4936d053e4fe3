package ps

import (
	"repro/internal/graph"
	"repro/internal/ir"
)

// TryMoveCJUp attempts the move-cj transformation of Figure 3: the
// conditional jump at the root vertex of its node moves one edge up into
// the unique predecessor, and the node splits into a continue-side node
// and an exit-side drain node, each receiving the old root's operations
// (the drain gets frozen clones — these form Perfect Pipelining's
// pre/post-loop code and are never rescheduled).
//
// The split preserves semantics: the root ops used to commit on both
// branch outcomes, and afterwards they still commit on both outcomes,
// one node later than the (now earlier) branch decision.
func (c *Ctx) TryMoveCJUp(cj *ir.Op, commit bool) Block {
	if cj.Frozen {
		return Block{Kind: BlockFrozen}
	}
	if !cj.IsBranch() {
		panic("ps: TryMoveCJUp on non-branch")
	}
	v := c.G.Where(cj)
	if v == nil {
		panic("ps: unplaced branch")
	}
	n := v.Node()
	if v != n.Root {
		// Nested under an earlier branch in the same instruction:
		// branch order is fixed, so this jump is blocked by it.
		return Block{Kind: BlockDep, By: enclosingCJ(v)}
	}
	t, leaf, blk := c.predLeaf(n)
	if blk.Kind != BlockNone {
		return blk
	}

	if !c.M.FitsBranches(t.BranchCount() + 1) {
		return Block{Kind: BlockResource}
	}

	// Dependence scan: the jump's condition registers must not be
	// produced on the target path (modulo copy propagation). A branch
	// has no destination and no memory reference, so the shared
	// committed-path check reduces to exactly this test.
	var rwBuf [8]rewrite
	block, rewrites := scanCommittedPath(leaf, cj, nil, rwBuf[:0])
	if block.Kind != BlockNone {
		return block
	}

	if !commit {
		return blockNone
	}
	for _, rw := range rewrites {
		c.G.ReplaceUse(cj, rw.from, rw.to)
	}

	// Detach the incoming edge, dissolve the node, and rebuild the two
	// sides. The continue-side node inherits the old node's chain
	// position.
	c.G.RetargetLeaf(leaf, nil)
	cjOp, rootOps, tSub, fSub := c.G.DetachBranchRoot(n)

	tn := c.G.AdoptSubtree(tSub, n.Pos())
	for _, o := range rootOps {
		c.G.AddOp(o, tSub)
	}

	fn := c.G.AdoptSubtree(fSub, n.Pos())
	fn.Drain = true
	for _, o := range rootOps {
		c.G.AddOp(o.Clone(c.G.Alloc.OpID(), true), fSub)
	}

	c.G.InsertBranchAtLeaf(leaf, cjOp, tn, fn)
	if tn.Empty() {
		c.G.SpliceOutEmpty(tn)
	}
	if fn.Empty() {
		c.G.SpliceOutEmpty(fn)
	}
	c.CJMoves++
	return blockNone
}

// enclosingCJ returns the conditional jump at the nearest ancestor
// branch vertex — the branch that pins a nested jump in place.
func enclosingCJ(v *graph.Vertex) *ir.Op {
	for p := v.Parent(); p != nil; p = p.Parent() {
		if p.CJ != nil {
			return p.CJ
		}
	}
	return nil
}

package ps

import (
	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
)

// TryHoist attempts to move op one vertex up inside its instruction
// tree, past the conditional jump at the parent vertex. This is
// speculation: afterwards the op's result commits even when the branch
// takes the other side. It is legal when
//
//   - the op is not a store (stores are irreversible; the paper's GRiP
//     "always allows speculative scheduling" of recoverable operations,
//     and loads, arithmetic and division are all recoverable here —
//     division by zero is defined as 0 by the simulator);
//   - no operation on the sibling subtree defines the same register
//     (double commit on one path); and
//   - the op's target register is dead along the sibling side: nothing
//     reachable through the sibling's leaves reads it before a kill, and
//     it is not observable at program exit. (Write-live condition.)
func (c *Ctx) TryHoist(op *ir.Op, commit bool) Block {
	if op.Frozen {
		return Block{Kind: BlockFrozen}
	}
	if op.IsBranch() {
		panic("ps: TryHoist on branch")
	}
	v := c.G.Where(op)
	if v == nil {
		panic("ps: unplaced op")
	}
	n := v.Node()
	if v == n.Root {
		return Block{Kind: BlockStructure}
	}
	parent := v.Parent()
	if op.IsStore() {
		return Block{Kind: BlockDep, By: parent.CJ}
	}
	d := op.Def()
	sib := v.Sibling()

	// Double definition on a newly shared path: the sibling subtree
	// already commits d. It is walked op by op: hoist siblings are
	// almost always op-less leaves. The root path above the parent
	// needs no walk: op already shares it, so on every graph that keeps
	// the single-definition-per-path rule (Validate's
	// checkSingleDefPerPath) nothing there defines d.
	if blk := findDef(sib, d); blk.Kind != BlockNone {
		return blk
	}

	// Write-live on the sibling side.
	if deps.LiveOnSubtree(c.G, sib, d, c.ExitLive) {
		return Block{Kind: BlockDep}
	}

	if !commit {
		return blockNone
	}
	c.G.HoistOp(op)
	c.Hoists++
	return blockNone
}

func findDef(v *graph.Vertex, d ir.Reg) Block {
	if d == ir.NoReg {
		return blockNone
	}
	for _, p := range v.Ops {
		if p.Def() == d {
			return Block{Kind: BlockDep, By: p}
		}
	}
	if v.IsLeaf() {
		return blockNone
	}
	if blk := findDef(v.True, d); blk.Kind != BlockNone {
		return blk
	}
	return findDef(v.False, d)
}

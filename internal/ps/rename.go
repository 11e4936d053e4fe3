package ps

import (
	"repro/internal/ir"
)

// TryMoveOpUpRenamed attempts move-op and, when it fails only because of
// an output dependence or a move-past-read/write-live conflict on the
// op's target register, applies the paper's renaming transformation: the
// op is retargeted to a fresh register R and a compensation copy
// "old <- R" is left at the op's original vertex (so every old reader
// still sees the value at the old time), after which the move is retried.
//
// The compensation copy occupies a functional unit in the source node —
// renaming is not free, exactly as in the paper — so the source node
// must have a free slot.
func (c *Ctx) TryMoveOpUpRenamed(op *ir.Op) Block {
	blk := c.TryMoveOpUp(op, true, nil)
	if blk.Kind == BlockNone {
		return blk
	}
	if blk.Kind != BlockDep || blk.By == nil {
		return blk
	}
	d := op.Def()
	if d == ir.NoReg {
		return blk
	}
	// Renaming helps only when the conflict is about op's destination:
	// the blocker reads d (move-past-read) or writes d (output dep).
	if !blk.By.ReadsReg(d) && blk.By.Def() != d {
		return blk
	}

	v := c.G.Where(op)
	n := v.Node()
	if !c.M.FitsOps(n.OpCount() + 1) {
		return Block{Kind: BlockResource}
	}

	r := c.G.Alloc.Reg()
	compensation := &ir.Op{
		ID:     c.G.Alloc.OpID(),
		Origin: op.Origin,
		Iter:   op.Iter,
		Index:  ir.NoIndex,
		Kind:   ir.Copy,
		Dst:    d,
		Src:    [2]ir.Reg{r},
	}
	// Retarget through the graph so the node's change stamp moves (the
	// Gapless-move memo revalidates verdicts by it).
	c.G.RetargetDef(op, r)
	c.G.AddOp(compensation, v)
	c.Renames++

	// The compensation copy deliberately reads the renamed register at
	// the old commit point, so it is excluded from the move-past-read
	// scan.
	if blk := c.TryMoveOpUp(op, true, compensation); blk.Kind == BlockNone {
		return blk
	}
	// Still blocked (a source dependence or full target): revert.
	c.G.RemoveOp(compensation)
	c.G.RetargetDef(op, d)
	c.Renames--
	return blk
}

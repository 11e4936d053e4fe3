package graph

import (
	"repro/internal/ir"
)

// Each vertex keeps a use may-mask, one word, maintained incrementally:
// bit r&63 is set iff some operation in the vertex's op list, or its
// conditional jump, reads a register congruent to r mod 64. A clear bit
// is exact ("no op here reads r"); a set bit may be another register's,
// so every reader confirms a hit with an op scan. Frozen operations are
// included: the move-past-read scan the mask filters does not skip them
// either.
//
// Maintenance discipline (see DESIGN.md §7): adding an operation ORs
// its reads in; removing one recomputes the mask from the surviving op
// list (bits cannot be cleared blindly — another op may contribute the
// same bit). Operand rewrites (copy propagation, renaming) must reach
// the vertex through Graph.ReplaceUse / Graph.RetargetDef, which
// recompute the same way.

// regBit returns register r's bit in a may-mask.
func regBit(r ir.Reg) uint64 { return 1 << (uint(r) & 63) }

// useMask returns the may-mask of the registers op reads.
func useMask(op *ir.Op) uint64 {
	var m uint64
	var buf [3]ir.Reg
	for _, u := range op.Uses(buf[:0]) {
		m |= regBit(u)
	}
	return m
}

// recomputeUses rebuilds v's use mask from its current op list and CJ.
func (v *Vertex) recomputeUses() {
	v.uses = 0
	for _, op := range v.Ops {
		v.uses |= useMask(op)
	}
	if v.CJ != nil {
		v.uses |= useMask(v.CJ)
	}
}

// MayRead reports whether an operation attached to v itself (its
// conditional jump included) may read register r. False is exact; true
// may be a collision, so callers confirm it op by op. O(1).
func (v *Vertex) MayRead(r ir.Reg) bool {
	return r != ir.NoReg && v.uses&regBit(r) != 0
}

// ReplaceUse substitutes register to for every read of from in op,
// keeping its vertex's use mask in sync. All operand rewrites of placed
// operations (copy propagation, renaming retries) must route through
// this method — calling ir.Op.ReplaceUse directly on a placed op would
// silently desynchronize the mask the move-past-read scan filters on,
// and leave the node's change stamp behind. Unplaced ops are rewritten
// without mask or stamp work.
func (g *Graph) ReplaceUse(op *ir.Op, from, to ir.Reg) {
	op.ReplaceUse(from, to)
	g.noteOperandsChanged(op)
}

// RetargetDef points op's destination at register r (the renaming
// transformation), moving its node's change stamp. Same routing rule as
// ReplaceUse: a placed op's Dst must never be assigned directly.
func (g *Graph) RetargetDef(op *ir.Op, r ir.Reg) {
	if op.IsBranch() || op.IsStore() {
		panic("graph: RetargetDef on op without a register destination")
	}
	op.Dst = r
	g.noteOperandsChanged(op)
}

// noteOperandsChanged refreshes op's vertex's use mask and its node's
// change stamp after op's registers were rewritten in place.
func (g *Graph) noteOperandsChanged(op *ir.Op) {
	if v := g.loc(op); v != nil {
		v.recomputeUses()
		g.bump()
		g.touch(v.node)
	}
}

package graph

import (
	"repro/internal/ir"
)

// summary is the incrementally maintained def/use digest of one vertex:
// it covers exactly the vertex's operation list plus its conditional
// jump's reads. The register sets are may-masks, one word each: bit
// r&63 is set iff some operation in the vertex defines/reads a register
// congruent to r mod 64. A clear bit is exact ("no op here touches r");
// a set bit may be another register's, so every reader confirms a hit
// exactly (DefSiteHere, or the op scan). Frozen operations are
// included: the ps dependence scans the summaries filter do not skip
// them either.
//
// Maintenance discipline (see DESIGN.md §7): adding an operation ORs
// its registers in; removing one recomputes the summary from the
// surviving op list (bits cannot be cleared blindly — another op may
// contribute the same bit). Operand rewrites (copy propagation,
// renaming) must reach the vertex through Graph.ReplaceUse /
// Graph.RetargetDef, which recompute the same way.
type summary struct {
	ownDefs, ownUses uint64
}

// regBit returns register r's bit in a may-mask.
func regBit(r ir.Reg) uint64 { return 1 << (uint(r) & 63) }

// addOp ORs one operation's contribution into the summary (branches
// contribute reads only; Def is NoReg for them).
func (s *summary) addOp(op *ir.Op) {
	if d := op.Def(); d != ir.NoReg {
		s.ownDefs |= regBit(d)
	}
	var buf [3]ir.Reg
	for _, u := range op.Uses(buf[:0]) {
		s.ownUses |= regBit(u)
	}
}

// recomputeOwn rebuilds the summary from v's current op list and CJ.
func (v *Vertex) recomputeOwn() {
	v.sum = summary{}
	for _, op := range v.Ops {
		v.sum.addOp(op)
	}
	if v.CJ != nil {
		v.sum.addOp(v.CJ) // reads only: branches define nothing
	}
}

// MayDefine reports whether an operation attached to v itself may write
// register r. False is exact: no own op defines r. True may be a
// collision with a register sharing r's mask bit, so callers confirm
// it with DefSiteHere. O(1).
func (v *Vertex) MayDefine(r ir.Reg) bool {
	return r != ir.NoReg && v.sum.ownDefs&regBit(r) != 0
}

// MayRead reports whether an operation attached to v itself (its
// conditional jump included) may read register r. False is exact; true
// may be a collision, so callers confirm it op by op. O(1).
func (v *Vertex) MayRead(r ir.Reg) bool {
	return r != ir.NoReg && v.sum.ownUses&regBit(r) != 0
}

// DefSiteHere returns the operation in v's own op list that defines
// register r, with its list position, or (nil, 0) when no own op does
// (always for NoReg, which stores and branches "define"). The
// single-definition-per-path invariant makes the site unique within any
// one path, so along a root→leaf walk this resolves "who defines r
// here". It scans the op list, which the machine's op slots bound;
// hot callers gate it on MayDefine.
func (v *Vertex) DefSiteHere(r ir.Reg) (*ir.Op, int32) {
	if r == ir.NoReg {
		return nil, 0
	}
	for i, op := range v.Ops {
		if op.Def() == r {
			return op, int32(i)
		}
	}
	return nil, 0
}

// ReplaceUse substitutes register to for every read of from in op,
// keeping the def/use summaries in sync. All operand rewrites of placed
// operations (copy propagation, renaming retries) must route through
// this method — calling ir.Op.ReplaceUse directly on a placed op would
// silently desynchronize the summaries the ps fast paths filter on.
// Unplaced ops are rewritten without summary work.
func (g *Graph) ReplaceUse(op *ir.Op, from, to ir.Reg) {
	op.ReplaceUse(from, to)
	g.noteOperandsChanged(op)
}

// RetargetDef points op's destination at register r (the renaming
// transformation), keeping the def/use summaries in sync. Same routing
// rule as ReplaceUse: a placed op's Dst must never be assigned
// directly.
func (g *Graph) RetargetDef(op *ir.Op, r ir.Reg) {
	if op.IsBranch() || op.IsStore() {
		panic("graph: RetargetDef on op without a register destination")
	}
	op.Dst = r
	g.noteOperandsChanged(op)
}

// noteOperandsChanged refreshes summaries after op's registers were
// rewritten in place.
func (g *Graph) noteOperandsChanged(op *ir.Op) {
	if v := g.loc(op); v != nil {
		v.recomputeOwn()
		g.bump()
		g.touch(v.node)
	}
}

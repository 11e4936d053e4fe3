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
// exactly (DefSiteHere, or the op scan). The store/load counters count
// its memory operations. Frozen operations are included: the ps
// dependence scans the summaries filter do not skip them either.
//
// Maintenance discipline (see DESIGN.md §7): adding an operation ORs
// its registers in; removing one recomputes the summary from the
// surviving op list (bits cannot be cleared blindly — another op may
// contribute the same bit). Operand rewrites (copy propagation,
// renaming) must reach the vertex through Graph.ReplaceUse /
// Graph.RetargetDef, which recompute the same way.
type summary struct {
	ownDefs, ownUses uint64
	ownStores        int32
	ownLoads         int32

	// defSites is the def-site index: one entry per operation in the
	// vertex's op list that defines a register, sorted by (reg, pos),
	// so "which op here defines r" needs no op-list scan. The
	// single-definition-per-path invariant (checkSingleDefPerPath)
	// makes the answer unique along any root→leaf path, which is what
	// lets the committed-path check jump straight to the blocker.
	// Maintained at exactly the summary maintenance sites (AddOp
	// inserts, everything else routes through recomputeOwn).
	defSites []defSite
}

// regBit returns register r's bit in a may-mask.
func regBit(r ir.Reg) uint64 { return 1 << (uint(r) & 63) }

// defSite keys one register-defining operation of a vertex's op list by
// its defined register and list position.
type defSite struct {
	reg ir.Reg
	pos int32
}

// cloneInto copies s into dst — masks and counters by value — carving
// the def-site index out of dsArena as a capped sub-slice, so a later
// append on the clone re-allocates instead of clobbering a neighbour;
// it returns the unused arena tail. A graph-wide arena keeps Clone at a
// constant allocation count.
func (s *summary) cloneInto(dst *summary, dsArena []defSite) []defSite {
	*dst = *s
	n := copy(dsArena, s.defSites)
	dst.defSites = dsArena[:n:n]
	return dsArena[n:]
}

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
	if op.IsStore() {
		s.ownStores++
	}
	if op.IsLoad() {
		s.ownLoads++
	}
}

// indexOp records op's def site at op-list position pos, keeping
// (reg, pos) order by sorted insertion.
func (s *summary) indexOp(op *ir.Op, pos int32) {
	if d := op.Def(); d != ir.NoReg {
		lo, hi := 0, len(s.defSites)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			e := s.defSites[mid]
			if e.reg < d || e.reg == d && e.pos < pos {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		s.defSites = append(s.defSites, defSite{})
		copy(s.defSites[lo+1:], s.defSites[lo:])
		s.defSites[lo] = defSite{reg: d, pos: pos}
	}
}

// recomputeOwn rebuilds the summary — masks, counters, and def-site
// index — from v's current op list and CJ.
func (v *Vertex) recomputeOwn() {
	s := &v.sum
	s.ownDefs, s.ownUses = 0, 0
	s.ownStores, s.ownLoads = 0, 0
	s.defSites = s.defSites[:0]
	for i, op := range v.Ops {
		s.addOp(op)
		s.indexOp(op, int32(i))
	}
	if v.CJ != nil {
		s.addOp(v.CJ) // reads only: branches define nothing, touch no memory
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

// StoresHere reports whether v's own operation list contains a store.
// O(1).
func (v *Vertex) StoresHere() bool { return v.sum.ownStores > 0 }

// LoadsHere reports whether v's own operation list contains a load.
// O(1).
func (v *Vertex) LoadsHere() bool { return v.sum.ownLoads > 0 }

// DefSiteHere returns the operation in v's own op list that defines
// register r, with its list position, or (nil, 0) when no own op does.
// The single-definition-per-path invariant makes the site unique
// within any one path, so along a root→leaf walk this resolves "who
// defines r here" without enumerating the op list. The index is sorted
// but scanned linearly with an early exit: def lists are bounded by
// the machine's op slots, fitting in a cache line or two, where a
// predictable sequential scan beats binary-search branch misses.
func (v *Vertex) DefSiteHere(r ir.Reg) (*ir.Op, int32) {
	for _, e := range v.sum.defSites {
		if e.reg < r {
			continue
		}
		if e.reg == r {
			return v.Ops[e.pos], e.pos
		}
		break
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
	}
}

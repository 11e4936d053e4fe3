package graph

import (
	"repro/internal/bitset"
	"repro/internal/ir"
)

// summary is the incrementally maintained def/use digest of one vertex:
// it covers exactly the vertex's operation list plus its conditional
// jump's reads. Register sets are exact — a bit is set iff some
// operation in the vertex defines/reads that register — and the
// store/load counters count its memory operations. Frozen operations
// are included: the ps dependence scans the summaries filter do not
// skip them either.
//
// Maintenance discipline (see DESIGN.md §7): adding an operation ORs
// its registers in (exact, because a bit is "some op contributes");
// removing one recomputes the summary from the surviving op list (bits
// cannot be cleared blindly — another op may contribute the same
// register). Operand rewrites (copy propagation, renaming) must reach
// the vertex through Graph.ReplaceUse / Graph.RetargetDef, which
// recompute the same way.
type summary struct {
	ownDefs, ownUses bitset.Grow
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

// defSite keys one register-defining operation of a vertex's op list by
// its defined register and list position.
type defSite struct {
	reg ir.Reg
	pos int32
}

// words returns the total backing-word count across the two register
// sets (arena sizing for Clone).
func (s *summary) words() int {
	return s.ownDefs.Words() + s.ownUses.Words()
}

// cloneInto copies s into dst, carving the register sets' storage out
// of arena and the def-site index out of dsArena (as a capped
// sub-slice, so a later append on the clone re-allocates instead of
// clobbering a neighbour); it returns the unused arena tails.
// Graph-wide arenas keep Clone at a constant allocation count.
func (s *summary) cloneInto(dst *summary, arena []uint64, dsArena []defSite) ([]uint64, []defSite) {
	dst.ownStores, dst.ownLoads = s.ownStores, s.ownLoads
	for _, p := range [2]struct{ d, s *bitset.Grow }{
		{&dst.ownDefs, &s.ownDefs}, {&dst.ownUses, &s.ownUses},
	} {
		n := p.s.Words()
		p.d.SetWords(arena[:n], p.s)
		arena = arena[n:]
	}
	if n := len(s.defSites); n > 0 {
		copy(dsArena, s.defSites)
		dst.defSites = dsArena[:n:n]
		dsArena = dsArena[n:]
	}
	return arena, dsArena
}

// addOp ORs one operation's contribution into the summary (branches
// contribute reads only; Def is NoReg for them).
func (s *summary) addOp(op *ir.Op) {
	if d := op.Def(); d != ir.NoReg {
		s.ownDefs.Add(int(d))
	}
	var buf [3]ir.Reg
	for _, u := range op.Uses(buf[:0]) {
		s.ownUses.Add(int(u))
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

// recomputeOwn rebuilds the summary — bitsets, counters, and def-site
// index — from v's current op list and CJ.
func (v *Vertex) recomputeOwn() {
	s := &v.sum
	s.ownDefs.Reset()
	s.ownUses.Reset()
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

// DefinesHere reports whether an operation attached to v itself writes
// register r. O(1).
func (v *Vertex) DefinesHere(r ir.Reg) bool {
	if r == ir.NoReg {
		return false
	}
	return v.sum.ownDefs.Has(int(r))
}

// ReadsHere reports whether an operation attached to v itself (its
// conditional jump included) reads register r. O(1).
func (v *Vertex) ReadsHere(r ir.Reg) bool {
	if r == ir.NoReg {
		return false
	}
	return v.sum.ownUses.Has(int(r))
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
// keeping the def/use summaries exact. All operand rewrites of placed
// operations (copy propagation, renaming retries) must route through
// this method — calling ir.Op.ReplaceUse directly on a placed op would
// silently desynchronize the summaries the ps fast paths filter on.
// Unplaced ops are rewritten without summary work.
func (g *Graph) ReplaceUse(op *ir.Op, from, to ir.Reg) {
	op.ReplaceUse(from, to)
	g.noteOperandsChanged(op)
}

// RetargetDef points op's destination at register r (the renaming
// transformation), keeping the def/use summaries exact. Same routing
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

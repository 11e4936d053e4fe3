package graph

import (
	"repro/internal/bitset"
	"repro/internal/ir"
)

// summary is the incrementally maintained def/use digest of one vertex,
// in two tiers: the "own" tier covers exactly the vertex's operation
// list plus its conditional jump's reads, and the "pre" tier covers the
// root→vertex path of the instruction tree (parent's pre ∪ own; the
// root's pre is its own tier). Register sets are exact — a bit is set
// iff some operation in the covered scope defines/reads that register —
// and the store/load counters count memory operations in the covered
// scope. Frozen operations are included: the ps dependence scans the
// summaries filter do not skip them either.
//
// The pre tier answers "does anything on this exact path conflict",
// which is what the committed-path scan needs — a leaf's pre tier makes
// that filter exact (DESIGN.md §10).
//
// Maintenance discipline (see DESIGN.md §7, §10): adding an operation
// ORs its registers in (exact, because a bit is "some op contributes");
// removing one recomputes the own tier from the surviving op list
// (bits cannot be cleared blindly — another op may contribute the same
// register), then the pre tiers of the vertex's subtree are
// re-propagated top-down (a changed own tier changes exactly the
// prefixes at and below the vertex). Operand rewrites (copy
// propagation, renaming) must reach the vertex through
// Graph.ReplaceUse / Graph.RetargetDef, which recompute the same way.
type summary struct {
	ownDefs, ownUses bitset.Grow
	preDefs          bitset.Grow
	ownStores        int32
	ownLoads         int32
	preStores        int32

	// defSites is the own-tier def-site index: one entry per operation
	// in the vertex's op list that defines a register, sorted by (reg,
	// pos), so "which op here defines r" is a binary search instead of
	// an op-list scan. The single-definition-per-path invariant
	// (checkSingleDefPerPath) makes the answer unique along any
	// root→leaf path, which is what lets the committed-path resolver
	// jump straight to blockers and copy-rewrite sites. storePos lists
	// the positions of the vertex's store ops, ascending, for the
	// memory-ordering test. Both are maintained at exactly the summary
	// maintenance sites (AddOp appends, everything else routes through
	// recomputeOwn).
	defSites []defSite
	storePos []int32
}

// defSite keys one register-defining operation of a vertex's op list by
// its defined register and list position.
type defSite struct {
	reg ir.Reg
	pos int32
}

// presizeSummary points v's three register sets at zeroed storage
// carved from the graph's word arena, sized for the current register
// space, so steady-state maintenance (addOp OR-ins, recomputes, pre-tier
// propagation) never grows them. Registers allocated after v's creation
// (renaming mid-schedule) still grow the affected set on demand.
func (g *Graph) presizeSummary(v *Vertex) {
	w := g.Alloc.NumRegs()>>6 + 1
	backing := g.allocWords(3 * w)
	s := &v.sum
	s.ownDefs.SetBacking(backing[0*w : 1*w : 1*w])
	s.ownUses.SetBacking(backing[1*w : 2*w : 2*w])
	s.preDefs.SetBacking(backing[2*w : 3*w : 3*w])
	// Seed the def/store site indexes with a few slots from the graph
	// arenas: most vertices hold a handful of ops, so this makes the
	// common indexOp path append-without-allocating. A vertex that
	// outgrows its seed falls back to ordinary append growth.
	const seed = 4
	if len(g.dsChunk) < seed {
		g.dsChunk = make([]defSite, 256)
	}
	s.defSites = g.dsChunk[:0:seed]
	g.dsChunk = g.dsChunk[seed:]
	if len(g.spChunk) < seed {
		g.spChunk = make([]int32, 256)
	}
	s.storePos = g.spChunk[:0:seed]
	g.spChunk = g.spChunk[seed:]
}

// words returns the total backing-word count across the three register
// sets (arena sizing for Clone).
func (s *summary) words() int {
	return s.ownDefs.Words() + s.ownUses.Words() + s.preDefs.Words()
}

// cloneInto copies s into dst, carving the register sets' storage out
// of arena and the def/store site indexes out of dsArena/spArena (as
// capped sub-slices, so a later append on the clone re-allocates
// instead of clobbering a neighbour); it returns the unused arena
// tails. Graph-wide arenas keep Clone at a constant allocation count.
func (s *summary) cloneInto(dst *summary, arena []uint64, dsArena []defSite, spArena []int32) ([]uint64, []defSite, []int32) {
	dst.ownStores, dst.ownLoads, dst.preStores = s.ownStores, s.ownLoads, s.preStores
	for _, p := range [3]struct{ d, s *bitset.Grow }{
		{&dst.ownDefs, &s.ownDefs}, {&dst.ownUses, &s.ownUses}, {&dst.preDefs, &s.preDefs},
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
	if n := len(s.storePos); n > 0 {
		copy(spArena, s.storePos)
		dst.storePos = spArena[:n:n]
		spArena = spArena[n:]
	}
	return arena, dsArena, spArena
}

// addOp ORs one operation's contribution into the own tier (branches
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

// indexOp records op's def and store sites at op-list position pos.
// Callers append ops at the end of the list (AddOp) or replay the whole
// list in order (recomputeOwn), so storePos stays ascending without
// sorting; defSites keeps (reg, pos) order via sorted insertion.
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
	if op.IsStore() {
		s.storePos = append(s.storePos, pos)
	}
}

// recomputeOwn rebuilds the own tier — bitsets, counters, and def/store
// site indexes — from v's current op list and CJ.
func (v *Vertex) recomputeOwn() {
	s := &v.sum
	s.ownDefs.Reset()
	s.ownUses.Reset()
	s.ownStores, s.ownLoads = 0, 0
	s.defSites = s.defSites[:0]
	s.storePos = s.storePos[:0]
	for i, op := range v.Ops {
		s.addOp(op)
		s.indexOp(op, int32(i))
	}
	if v.CJ != nil {
		s.addOp(v.CJ) // reads only: branches define nothing, touch no memory
	}
}

// recomputePre rebuilds v's pre tier as parent's pre ∪ own (own alone
// at the root). The parent's pre tier is trusted; callers propagate
// top-down.
func (v *Vertex) recomputePre() {
	s := &v.sum
	if p := v.parent; p != nil {
		s.preDefs.CopyFrom(&p.sum.preDefs)
		s.preDefs.Or(&s.ownDefs)
		s.preStores = p.sum.preStores + s.ownStores
		return
	}
	s.preDefs.CopyFrom(&s.ownDefs)
	s.preStores = s.ownStores
}

// repropagatePre rebuilds the pre tiers of the subtree rooted at v,
// top-down. Called after v's own tier changed: prefixes strictly above
// v are unaffected (they do not include v's ops), while every prefix
// at or below v includes v's own tier and must be refreshed. O(1) at a
// leaf — the overwhelmingly common mutation site.
func repropagatePre(v *Vertex) {
	v.recomputePre()
	if !v.IsLeaf() {
		repropagatePre(v.True)
		repropagatePre(v.False)
	}
}

// recomputeSummaries rebuilds every summary in the subtree rooted at v
// from scratch, top-down: each vertex's own tier, then its pre tier from
// the parent's fresh one (subtree adoption). The caller guarantees v's
// parent pointer is current (AdoptSubtree clears it before calling).
func recomputeSummaries(v *Vertex) {
	v.recomputeOwn()
	v.recomputePre()
	if !v.IsLeaf() {
		recomputeSummaries(v.True)
		recomputeSummaries(v.False)
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

// PathDefines reports whether any operation on the root→v path of v's
// instruction tree (v's own operations included) writes register r.
// Exact for the one path ending at v: a false answer proves no
// committed-path operation defines r. O(1) from the pre tier.
func (v *Vertex) PathDefines(r ir.Reg) bool {
	if r == ir.NoReg {
		return false
	}
	return v.sum.preDefs.Has(int(r))
}

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

// StoreSites returns the op-list positions of v's own store operations,
// ascending. The returned slice is the live index — callers must not
// mutate it.
func (v *Vertex) StoreSites() []int32 { return v.sum.storePos }

// PathStores reports whether the root→v path contains a store. O(1).
func (v *Vertex) PathStores() bool { return v.sum.preStores > 0 }

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
	op.SetDst(r)
	g.noteOperandsChanged(op)
}

// noteOperandsChanged refreshes summaries after op's registers were
// rewritten in place.
func (g *Graph) noteOperandsChanged(op *ir.Op) {
	if v := g.loc(op); v != nil {
		v.recomputeOwn()
		repropagatePre(v)
		g.bump()
	}
}

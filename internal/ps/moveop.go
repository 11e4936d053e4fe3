package ps

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ir"
)

// rewrite is a copy-propagation substitution: a use of from becomes a use
// of to. Valid because the copy "to -> from" on the destination path read
// register to at the destination instruction's entry — exactly where the
// moved operation will read it (paper section 2: "we simply change the
// use of B into a use of X").
type rewrite struct{ from, to ir.Reg }

// TryMoveOpUp attempts the move-op transformation of Figure 2: move op —
// which must sit at the root vertex of its node — one edge up, attaching
// it at the leaf of the unique predecessor that points at op's node. The
// commit condition of the op is exactly preserved (it still commits iff
// control would have reached its old node), so this step alone is never
// speculative; speculation happens in TryHoist.
//
// With commit false the graph is left untouched and the result reports
// whether the move would succeed. excluding, when non-nil, is treated as
// absent from the graph: the Gapless-move test (condition 4) uses it to
// ask "would X be moveable if Op had already left?".
func (c *Ctx) TryMoveOpUp(op *ir.Op, commit bool, excluding *ir.Op) Block {
	if op.Frozen {
		return Block{Kind: BlockFrozen}
	}
	if op.IsBranch() {
		panic("ps: TryMoveOpUp on branch")
	}
	v := c.G.Where(op)
	if v == nil {
		panic("ps: unplaced op")
	}
	n := v.Node()
	if v != n.Root {
		// Under a branch inside the node: must hoist first.
		return Block{Kind: BlockStructure}
	}
	t, leaf, blk := c.predLeaf(n)
	if blk.Kind != BlockNone {
		return blk
	}

	// Dependence scan along the committed path of the target node. The
	// rewrite list lives in a stack buffer: probe calls (commit=false,
	// the Gapless-move test's canFill) must not allocate.
	var rwBuf [8]rewrite
	block, rewrites := c.checkCommittedPath(leaf, op, excluding, rwBuf[:0])
	if block.Kind != BlockNone {
		return block
	}

	// Move-past-read: a reader of op's target remaining in the source
	// node would observe the new value instead of the old one (reads
	// happen at entry). Renaming can remove this. The memory analogue:
	// a store may not move above an aliasing load left behind.
	if blk := c.scanMovePastRead(n, op, excluding); blk.Kind != BlockNone {
		return blk
	}

	// Resources: every op in the tree occupies a functional unit.
	target := t.OpCount() + 1
	if excluding != nil && !excluding.IsBranch() && c.G.NodeOf(excluding) == t {
		target--
	}
	if !c.M.FitsOps(target) {
		return Block{Kind: BlockResource}
	}

	if !commit {
		return blockNone
	}
	if len(rewrites) > 0 {
		for _, rw := range rewrites {
			c.G.ReplaceUse(op, rw.from, rw.to)
		}
		c.noteRewrite(op)
	}
	c.G.MoveOp(op, leaf)
	c.Moves++
	if n.Empty() {
		if c.G.SpliceOutEmpty(n) {
			c.Splices++
		}
	}
	return blockNone
}

// Bits of the pathScanNeeded hit mask beyond the per-use bits 1<<j.
const (
	hitOpDef  = 1 << 3 // op's destination is defined on the path
	hitStores = 1 << 4 // op touches memory and the path holds stores
)

// pathScanNeeded is the summary filter for the committed-path dependence
// scan: it reports which of op's registers the root→leaf path the mover
// enters could conflict with — bit j for uses[j], hitOpDef for the
// destination, hitStores for the memory probe — so the resolver only
// resolves registers that actually hit. A zero mask is a proof of
// absence — the leaf's path-prefix def set covers exactly the
// operations committed on this path, and its prefix store count every
// store on it — so the caller may skip the scan and keep the empty
// rewrite list. The filter is exact up to `excluding` (an op the caller
// treats as absent still contributes its summary bits): a hit caused
// only by excluding resolves to no block and no rewrites, never a wrong
// verdict.
func pathScanNeeded(leaf *graph.Vertex, op *ir.Op, uses []ir.Reg) uint8 {
	mask := uint8(0)
	for j, u := range uses {
		if leaf.PathDefines(u) {
			mask |= 1 << j
		}
	}
	if d := op.Def(); d != ir.NoReg && leaf.PathDefines(d) {
		mask |= hitOpDef
	}
	// op.Mem non-zero ⇒ op is the load or store of the scan's memory
	// ordering test; any store on the path forces the scan.
	if !op.Mem.IsZero() && leaf.PathStores() {
		mask |= hitStores
	}
	return mask
}

// checkCommittedPath is the committed-path dependence test both movers
// share: may op enter leaf's node without conflicting with an operation
// committed on the root→leaf path? It returns the verdict and appends
// the copy-propagation rewrites the move needs to rewrites.
//
// The target leaf's path-prefix summary filters first: when none of
// op's reads or its def appear in the path's def set and (for memory
// ops) the path holds no store, no path op can conflict and no copy can
// rewrite an operand, so nothing is resolved. The prefix set covers
// exactly the root→leaf path, so a hit means some committed op really
// does touch a probed register (DESIGN.md §10 argues soundness), and
// the walk-free resolver names it. Under Ctx.CrossCheck the retained
// reference scan runs next to every answer, hit or miss, and any
// divergence in verdict, blocker, rewritten use list, or rewrite list
// panics.
//
// Scratch lists live in stack buffers. Bounds: no op kind reads more
// than 2 registers (TestOpUsesBufferBound), and each rewrite is one
// copy-propagation hop, so the callers' 8-entry rewrite buffers cover
// any chain the schedulers build; a longer chain overflows into a
// correct heap append, it is just no longer free
// (TestRewriteBufferOverflowsCorrectly).
func (c *Ctx) checkCommittedPath(leaf *graph.Vertex, op, excluding *ir.Op, rewrites []rewrite) (Block, []rewrite) {
	var useBuf [3]ir.Reg
	uses := op.UsesView(useBuf[:0])
	block := blockNone
	if mask := pathScanNeeded(leaf, op, uses); mask != 0 {
		block, uses, rewrites = resolveCommittedPath(leaf, op, excluding, uses, useBuf[:0], rewrites, mask)
	}
	if c.CrossCheck {
		crossCheckPath(leaf, op, excluding, block, uses, rewrites)
	}
	return block, rewrites
}

// crossCheckPath compares a committed-path answer against the reference
// scan and panics on any divergence — a summary-maintenance or resolver
// bug, reported exactly like a failed graph invariant.
func crossCheckPath(leaf *graph.Vertex, op, excluding *ir.Op, block Block, uses []ir.Reg, rewrites []rewrite) {
	var refUseBuf [3]ir.Reg
	var refRwBuf [8]rewrite
	refBlock, refUses, refRewrites := scanCommittedPath(leaf, op, excluding, op.Uses(refUseBuf[:0]), refRwBuf[:0])
	diverged := block != refBlock || len(uses) != len(refUses) || len(rewrites) != len(refRewrites)
	if !diverged {
		for i := range uses {
			diverged = diverged || uses[i] != refUses[i]
		}
		for i := range rewrites {
			diverged = diverged || rewrites[i] != refRewrites[i]
		}
	}
	if diverged {
		panic(fmt.Sprintf("ps: committed-path check diverged from reference moving %v into n%d (got %v/%d rewrites, reference %v/%d rewrites)",
			op, leaf.Node().ID, block.Kind, len(rewrites), refBlock.Kind, len(refRewrites)))
	}
}

// noEvt is the "no candidate" sentinel for the event-loop resolver:
// larger than any packed path coordinate.
const noEvt = int64(1<<63 - 1)

// pathDefSite resolves register u — already known to be in the leaf's
// prefix def set — straight to its unique definition site on the
// root→leaf path (chain[0] is the leaf, chain[len-1] the root) and
// returns the defining op with its packed path coordinate — (depth
// below root)<<32 | (op position) — so coordinates order exactly like
// the reference scan visits ops. Resolution is two lookups, never an
// op enumeration: the path-prefix def set is monotone along the path
// (pre(v) = pre(parent) ∪ own(v)) and the single-definition-per-path
// invariant (Validate's checkSingleDefPerPath) makes the membership
// flip exactly at the defining vertex, so a binary search over the
// chain lands on it and the vertex's sorted def-site index yields the
// op. A site occupied by op or excluding — which the scan treats as
// absent — resolves to no event: with defs unique per path there is no
// other site to fall back to.
func pathDefSite(chain []*graph.Vertex, u ir.Reg, op, excluding *ir.Op) (*ir.Op, int64) {
	lo, hi := 0, len(chain)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if chain[mid].PathDefines(u) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	p, k := chain[lo].DefSiteHere(u)
	if p == nil || p == op || p == excluding {
		return nil, noEvt
	}
	return p, int64(len(chain)-1-lo)<<32 | int64(k)
}

// resolveCommittedPath is the walk-free committed-path dependence scan.
// It never enumerates path operations: each probed register resolves
// straight to its unique definition site (pathDefSite), memory movers
// to the first aliasing store through the store-position index, and
// the earliest such event decides — a copy event rewrites the matching
// uses and re-resolves just those, any other event is the blocker.
//
// The event order reproduces the reference scan bit-for-bit:
//   - Packed coordinates order by (vertex depth, op position), which
//     is the reference's scan order; the evolving use list at each
//     event therefore matches the reference's, so the verdict —
//     order-sensitive because a def of a rewritten use after the copy
//     blocks while one before it does not — is identical, as is the
//     rewrite list (DESIGN.md §10).
//   - Per rewritten use, entry[j] records the rewrite coordinate, so a
//     definition of the new register at or before it (already passed
//     by the reference) never fires.
//   - Event coordinates are distinct except when one op both defines a
//     current use and op's own destination (u == opDef): there the use
//     event runs first, exactly as the reference checks uses before
//     the output dependence — a copy rewrites and then blocks as the
//     output dependence, a non-copy blocks outright; either way the
//     blocker is that op. Stores define no register, so a memory event
//     never ties with a def event.
//
// Conditional jumps on the path are irrelevant here exactly as in the
// reference: they define no register and touch no memory.
func resolveCommittedPath(leaf *graph.Vertex, op, excluding *ir.Op, uses, scratch []ir.Reg, rewrites []rewrite, mask uint8) (Block, []ir.Reg, []rewrite) {
	// Same stack-buffered chain collection as pathOps (and the same
	// overflow behavior past depth 8: a correct heap append).
	var buf [8]*graph.Vertex
	chain := buf[:0]
	for v := leaf; v != nil; v = v.Parent() {
		chain = append(chain, v)
	}

	// Fixed candidates: the output-dependence site, and for a memory
	// mover the first aliasing store in scan order — the only walk
	// left, over per-vertex store counters with the op list untouched.
	// The filter's hit mask says which registers are on the path at
	// all, so a non-hit probe costs nothing here.
	po, ko := (*ir.Op)(nil), noEvt
	if mask&hitOpDef != 0 {
		po, ko = pathDefSite(chain, op.Def(), op, excluding)
	}
	pmem, kmem := (*ir.Op)(nil), noEvt
	if mask&hitStores != 0 && (op.IsLoad() || op.IsStore()) {
		// Memory ordering: a load may not pass an aliasing store; two
		// aliasing stores may not share a path (ambiguous commit).
	memScan:
		for i := len(chain) - 1; i >= 0; i-- {
			if !chain[i].StoresHere() {
				continue
			}
			for _, k := range chain[i].StoreSites() {
				if p := chain[i].Ops[k]; p != op && p != excluding && op.Mem.MayAlias(p.Mem) {
					pmem, kmem = p, int64(len(chain)-1-i)<<32|int64(k)
					break memScan
				}
			}
		}
	}

	// Earliest use-def event among the filter's hit registers. The
	// rewrite-coordinate guards (entry) are set up lazily on the first
	// copy event: the overwhelmingly common call resolves in this one
	// pass and never touches them.
	best, bestJ := noEvt, -1
	var bestP *ir.Op
	for j, u := range uses {
		if mask&(1<<j) == 0 {
			continue
		}
		if p, c := pathDefSite(chain, u, op, excluding); p != nil && c < best {
			best, bestJ, bestP = c, j, p
		}
	}
	var entryBuf [3]int64
	var entry []int64
	for {
		if kmem < best && kmem < ko {
			return Block{Kind: BlockDep, By: pmem}, uses, rewrites
		}
		if ko < best {
			// Output dependence: two commits of the same register
			// on one path. Renaming can remove this.
			return Block{Kind: BlockDep, By: po}, uses, rewrites
		}
		if bestJ < 0 {
			return blockNone, uses, rewrites
		}
		if !bestP.IsCopy() {
			return Block{Kind: BlockDep, By: bestP}, uses, rewrites
		}
		if entry == nil {
			entry = entryBuf[:len(uses)]
			for j := range entry {
				entry[j] = -1
			}
			// The use list may alias the op's operand cache (UsesView);
			// detach into the caller's scratch before rewriting it.
			uses = append(scratch[:0], uses...)
		}
		// Propagate through the copy: every current use of its target
		// is rewritten, ascending j, matching the reference inner loop,
		// and its filter bit refreshed for the replacement register.
		d, src := bestP.Def(), bestP.Src[0]
		for j, u := range uses {
			if u == d && entry[j] < best {
				uses[j] = src
				entry[j] = best
				rewrites = append(rewrites, rewrite{from: d, to: src})
				if chain[0].PathDefines(src) {
					mask |= 1 << j
				} else {
					mask &^= 1 << j
				}
			}
		}
		if best == ko {
			return Block{Kind: BlockDep, By: po}, uses, rewrites
		}
		// Next event: re-resolve every live register past its rewrite
		// coordinate. Only copy-event iterations pay this — zero on the
		// table's profile.
		best, bestJ, bestP = noEvt, -1, nil
		for j, u := range uses {
			if mask&(1<<j) == 0 {
				continue
			}
			p, c := pathDefSite(chain, u, op, excluding)
			if p == nil || c <= entry[j] {
				continue
			}
			if c < best {
				best, bestJ, bestP = c, j, p
			}
		}
	}
}

// scanCommittedPath is the reference dependence scan: register-by-
// register over every operation committed on the root→leaf path of the
// target node, collecting copy-propagation rewrites. It returns the
// blocking verdict plus the (possibly rewritten) use list and rewrite
// list. Retained as the cross-checked reference implementation behind
// Ctx.CrossCheck.
func scanCommittedPath(leaf *graph.Vertex, op, excluding *ir.Op, uses []ir.Reg, rewrites []rewrite) (Block, []ir.Reg, []rewrite) {
	block := blockNone
	pathOps(leaf, func(p *ir.Op) bool {
		if p == excluding || p == op {
			return true
		}
		if d := p.Def(); d != ir.NoReg {
			for i, u := range uses {
				if u != d {
					continue
				}
				if p.IsCopy() {
					// Propagate through the copy.
					uses[i] = p.Src[0]
					rewrites = append(rewrites, rewrite{from: d, to: p.Src[0]})
					continue
				}
				block = Block{Kind: BlockDep, By: p}
				return false
			}
			if d == op.Def() {
				// Output dependence: two commits of the same register
				// on one path. Renaming can remove this.
				block = Block{Kind: BlockDep, By: p}
				return false
			}
		}
		// Memory ordering: a load may not pass an aliasing store; two
		// aliasing stores may not share a path (ambiguous commit).
		if !op.Mem.IsZero() && !p.Mem.IsZero() {
			if (op.IsLoad() && p.IsStore() || op.IsStore() && p.IsStore()) && op.Mem.MayAlias(p.Mem) {
				block = Block{Kind: BlockDep, By: p}
				return false
			}
		}
		return true
	}, nil)
	return block, uses, rewrites
}

// scanMovePastRead checks for readers of op's target register (or, for
// a store, aliasing loads) left behind in the source node. The fast
// path visits every vertex of the instruction tree in the same preorder
// as the reference walk, so the reported blocker is identical, but
// scans a vertex's op list only when its own tier holds a read of d
// (or a load, for a store mover). Under Ctx.CrossCheck the retained
// full walk runs next to it and any divergence panics.
func (c *Ctx) scanMovePastRead(n *graph.Node, op *ir.Op, excluding *ir.Op) Block {
	blk := scanMovePastReadFast(n.Root, op, excluding, op.Def(), op.IsStore())
	if c.CrossCheck {
		if ref := scanMovePastReadReference(n, op, excluding); ref != blk {
			panic(fmt.Sprintf("ps: move-past-read fast scan diverged for %v in n%d (got %v by %v, reference %v by %v)",
				op, n.ID, blk.Kind, blk.By, ref.Kind, ref.By))
		}
	}
	return blk
}

// scanMovePastReadFast is the own-tier-gated walk. Soundness of the
// gate: a blocking op p satisfies either p.ReadsReg(d) — then d is in
// the own-use tier of p's vertex — or p.IsLoad()∧aliasing — then that
// vertex's own load counter is positive. So a skipped op list holds no
// blocker. The gate may pass without a blocker (op or excluding
// contribute their own reads; MayAlias is per-op), which costs a scan
// that finds nothing, never a wrong verdict.
func scanMovePastReadFast(v *graph.Vertex, op, excluding *ir.Op, d ir.Reg, isStore bool) Block {
	if d != ir.NoReg && v.ReadsHere(d) || isStore && v.LoadsHere() {
		for _, p := range v.Ops {
			if p == op || p == excluding {
				continue
			}
			if d != ir.NoReg && p.ReadsReg(d) {
				return Block{Kind: BlockDep, By: p}
			}
			if isStore && p.IsLoad() && op.Mem.MayAlias(p.Mem) {
				return Block{Kind: BlockDep, By: p}
			}
		}
		if p := v.CJ; p != nil && p != excluding && d != ir.NoReg && p.ReadsReg(d) {
			return Block{Kind: BlockDep, By: p}
		}
	}
	if v.IsLeaf() {
		return blockNone
	}
	if blk := scanMovePastReadFast(v.True, op, excluding, d, isStore); blk.Kind != BlockNone {
		return blk
	}
	return scanMovePastReadFast(v.False, op, excluding, d, isStore)
}

// scanMovePastReadReference is the retained full scan over every vertex
// of the source node.
func scanMovePastReadReference(n *graph.Node, op *ir.Op, excluding *ir.Op) Block {
	d := op.Def()
	block := blockNone
	n.Walk(func(v *graph.Vertex) {
		if block.Kind != BlockNone {
			return
		}
		check := func(p *ir.Op) bool {
			if p == op || p == excluding {
				return true
			}
			if d != ir.NoReg && p.ReadsReg(d) {
				block = Block{Kind: BlockDep, By: p}
				return false
			}
			if op.IsStore() && p.IsLoad() && op.Mem.MayAlias(p.Mem) {
				block = Block{Kind: BlockDep, By: p}
				return false
			}
			return true
		}
		for _, p := range v.Ops {
			if !check(p) {
				return
			}
		}
		if v.CJ != nil {
			check(v.CJ)
		}
	})
	return block
}

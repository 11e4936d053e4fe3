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
	for _, rw := range rewrites {
		c.G.ReplaceUse(op, rw.from, rw.to)
	}
	c.G.MoveOp(op, leaf)
	c.Moves++
	if n.Empty() {
		c.G.SpliceOutEmpty(n)
	}
	return blockNone
}

// checkCommittedPath is the committed-path dependence test both movers
// share: may op enter leaf's node without conflicting with an operation
// committed on the root→leaf path? It returns the verdict and appends
// the copy-propagation rewrites the move needs to rewrites.
//
// firstPathEvent names the earliest path op the reference scan would
// act on, probing each vertex's op list only behind its def mask. A
// non-copy event is the blocker, and no event means the move is free
// with no rewrites: before its first event the reference scan neither
// blocks nor rewrites. A copy event hands the whole question to the
// reference scan, which performs the propagation — copies are that
// rare on the table's profile (DESIGN.md §10). Under Ctx.CrossCheck the
// reference scan runs next to every answer, and any divergence in
// verdict, blocker or rewrite list panics.
//
// Scratch lists live in stack buffers. Bounds: no op kind reads more
// than 2 registers (TestOpUsesBufferBound), and each rewrite is one
// copy-propagation hop, so the callers' 8-entry rewrite buffers cover
// any chain the schedulers build; a longer chain overflows into a
// correct heap append, it is just no longer free
// (TestRewriteBufferOverflowsCorrectly).
func (c *Ctx) checkCommittedPath(leaf *graph.Vertex, op, excluding *ir.Op, rewrites []rewrite) (Block, []rewrite) {
	block := blockNone
	if p := firstPathEvent(leaf, op, excluding); p != nil {
		if p.IsCopy() {
			var useBuf [3]ir.Reg
			block, _, rewrites = scanCommittedPath(leaf, op, excluding, op.Uses(useBuf[:0]), rewrites)
		} else {
			block = Block{Kind: BlockDep, By: p}
		}
	}
	if c.CrossCheck {
		crossCheckPath(leaf, op, excluding, block, rewrites)
	}
	return block, rewrites
}

// crossCheckPath compares a committed-path answer against the reference
// scan and panics on any divergence — a summary-maintenance or resolver
// bug, reported exactly like a failed graph invariant.
func crossCheckPath(leaf *graph.Vertex, op, excluding *ir.Op, block Block, rewrites []rewrite) {
	var refUseBuf [3]ir.Reg
	var refRwBuf [8]rewrite
	refBlock, _, refRewrites := scanCommittedPath(leaf, op, excluding, op.Uses(refUseBuf[:0]), refRwBuf[:0])
	diverged := block != refBlock || len(rewrites) != len(refRewrites)
	for i := 0; !diverged && i < len(rewrites); i++ {
		diverged = rewrites[i] != refRewrites[i]
	}
	if diverged {
		panic(fmt.Sprintf("ps: committed-path check diverged from reference moving %v into n%d (got %v/%d rewrites, reference %v/%d rewrites)",
			op, leaf.Node().ID, block.Kind, len(rewrites), refBlock.Kind, len(refRewrites)))
	}
}

// firstPathEvent returns the first operation, in the reference scan's
// root→leaf visit order, that defines one of op's reads or its
// destination or (for a load or store mover) is an aliasing store — or
// nil when the path holds none. op and excluding count as absent, as
// in the reference scan.
//
// It is one pass over the chain, root first, stopping at the first
// vertex with an event. A register resolves through DefSiteHere only
// when the vertex's def mask may hold it; by the
// single-definition-per-path invariant (Validate's
// checkSingleDefPerPath) that site is the register's only one on the
// path, so a site occupied by op or excluding leaves no other to fall
// back to. The memory probe scans the op list only ahead of the
// vertex's earliest register event. Stores define no register, so the
// two kinds of event never share an op. Conditional jumps on the path
// define nothing and touch no memory, exactly as the reference ignores
// them.
func firstPathEvent(leaf *graph.Vertex, op, excluding *ir.Op) *ir.Op {
	// Same stack-buffered chain collection as scanCommittedPath (and the
	// same overflow behavior past depth 8: a correct heap append).
	var buf [8]*graph.Vertex
	chain := buf[:0]
	for v := leaf; v != nil; v = v.Parent() {
		chain = append(chain, v)
	}
	// The probed registers: op's reads, then its destination (NoReg,
	// which no vertex defines, for stores and branches).
	var regBuf [3]ir.Reg
	regs := append(op.Uses(regBuf[:0]), op.Def())
	mem := !op.Mem.IsZero() && (op.IsLoad() || op.IsStore())
	for i := len(chain) - 1; i >= 0; i-- {
		v := chain[i]
		first, at := (*ir.Op)(nil), int32(len(v.Ops))
		for _, r := range regs {
			if !v.MayDefine(r) {
				continue
			}
			if p, k := v.DefSiteHere(r); p != nil && p != op && p != excluding && k < at {
				first, at = p, k
			}
		}
		if mem {
			for _, p := range v.Ops[:at] {
				// Memory ordering: a load may not pass an aliasing
				// store; two aliasing stores may not share a path
				// (ambiguous commit).
				if p.IsStore() && p != op && p != excluding && !p.Mem.IsZero() && op.Mem.MayAlias(p.Mem) {
					return p
				}
			}
		}
		if first != nil {
			return first
		}
	}
	return nil
}

// scanCommittedPath is the reference dependence scan: register-by-
// register over every operation committed on the root→leaf path of the
// target node, collecting copy-propagation rewrites. It returns the
// blocking verdict plus the (possibly rewritten) use list and rewrite
// list. Retained as the cross-checked reference implementation behind
// Ctx.CrossCheck; it collects the chain itself, so it shares no code
// with firstPathEvent.
func scanCommittedPath(leaf *graph.Vertex, op, excluding *ir.Op, uses []ir.Reg, rewrites []rewrite) (Block, []ir.Reg, []rewrite) {
	// Collect the root -> leaf chain. Instruction trees are shallow
	// (depth bounded by the branch-slot budget), so the stack buffer
	// makes the scan allocation-free under every paper machine. An
	// unlimited-branch machine can exceed 8 vertices; the append then
	// grows onto the heap with nothing dropped
	// (TestScanCommittedPathDeepTreeOverflowsCorrectly).
	var buf [8]*graph.Vertex
	chain := buf[:0]
	for v := leaf; v != nil; v = v.Parent() {
		chain = append(chain, v)
	}
	for k := len(chain) - 1; k >= 0; k-- {
		for _, p := range chain[k].Ops {
			if p == excluding || p == op {
				continue
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
					return Block{Kind: BlockDep, By: p}, uses, rewrites
				}
				if d == op.Def() {
					// Output dependence: two commits of the same register
					// on one path. Renaming can remove this.
					return Block{Kind: BlockDep, By: p}, uses, rewrites
				}
			}
			// Memory ordering: a load may not pass an aliasing store; two
			// aliasing stores may not share a path (ambiguous commit).
			if !op.Mem.IsZero() && !p.Mem.IsZero() {
				if (op.IsLoad() && p.IsStore() || op.IsStore() && p.IsStore()) && op.Mem.MayAlias(p.Mem) {
					return Block{Kind: BlockDep, By: p}, uses, rewrites
				}
			}
		}
	}
	return blockNone, uses, rewrites
}

// scanMovePastRead checks for readers of op's target register (or, for
// a store, aliasing loads) left behind in the source node. The fast
// path visits every vertex of the instruction tree in the same preorder
// as the reference walk, so the reported blocker is identical, but
// scans a vertex's op list only when its use mask may hold a read of d
// (every list, for a store mover). Under Ctx.CrossCheck the retained
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

// scanMovePastReadFast is the use-mask-gated walk. Soundness of the
// gate: a blocking op p satisfies either p.ReadsReg(d) — then d's bit
// is in the use mask of p's vertex — or p.IsLoad()∧aliasing, which only
// a store mover looks for, and a store mover scans every op list. So a
// skipped op list holds no blocker. The gate may pass without a blocker
// (a mask collision; op or excluding contribute their own reads;
// MayAlias is per-op), which costs a scan that finds nothing, never a
// wrong verdict.
func scanMovePastReadFast(v *graph.Vertex, op, excluding *ir.Op, d ir.Reg, isStore bool) Block {
	if isStore || v.MayRead(d) {
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

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
	block, rewrites := scanCommittedPath(leaf, op, excluding, rwBuf[:0])
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

// scanCommittedPath is the committed-path dependence test both movers
// share: may op enter leaf's node without conflicting with an operation
// committed on the root→leaf path? It visits every path op in root→leaf
// order, treating op and excluding (the Gapless-move probe's leaving
// op) as absent, and blocks on the first one that defines a register op
// reads (a copy instead rewrites the read to its source: copy
// propagation), defines op's destination too (an output dependence,
// which renaming can remove), or, for a load or store mover, is an
// aliasing store (a load may not pass it, and two aliasing stores may
// not share a path: an ambiguous commit). It returns the verdict with
// the copy-propagation rewrites appended to rewrites; a block after a
// rewrite reports both.
//
// The mover's facts are read once, before the loop. Stores define no
// register, so a path op defines a register or is tested for memory
// order, never both; conditional jumps on the path define nothing and
// touch no memory. The paths are short enough that no summary filters
// them (DESIGN.md §10).
//
// Scratch lists live in stack buffers. Instruction trees are shallow
// (depth bounded by the branch-slot budget), so the [8] chain buffer
// keeps the scan allocation-free under every paper machine; an
// unlimited-branch machine can exceed 8 vertices, and the append then
// grows onto the heap with nothing dropped
// (TestScanCommittedPathDeepTreeOverflowsCorrectly). No op kind reads
// more than 2 registers (TestOpUsesBufferBound), and each rewrite is
// one copy-propagation hop, so the callers' 8-entry rewrite buffers
// cover any chain the schedulers build; a longer chain overflows into a
// correct heap append (TestRewriteBufferOverflowsCorrectly).
func scanCommittedPath(leaf *graph.Vertex, op, excluding *ir.Op, rewrites []rewrite) (Block, []rewrite) {
	var buf [8]*graph.Vertex
	chain := buf[:0]
	for v := leaf; v != nil; v = v.Parent() {
		chain = append(chain, v)
	}
	var useBuf [3]ir.Reg
	uses := op.Uses(useBuf[:0])
	def := op.Def()
	mem := !op.Mem.IsZero() && (op.IsLoad() || op.IsStore())
	for k := len(chain) - 1; k >= 0; k-- {
		for _, p := range chain[k].Ops {
			if p == op || p == excluding {
				continue
			}
			d := p.Def()
			if d == ir.NoReg {
				if mem && p.IsStore() && !p.Mem.IsZero() && op.Mem.MayAlias(p.Mem) {
					return Block{Kind: BlockDep, By: p}, rewrites
				}
				continue
			}
			for i, u := range uses {
				if u != d {
					continue
				}
				if !p.IsCopy() {
					return Block{Kind: BlockDep, By: p}, rewrites
				}
				uses[i] = p.Src[0]
				rewrites = append(rewrites, rewrite{from: d, to: p.Src[0]})
			}
			if d == def {
				return Block{Kind: BlockDep, By: p}, rewrites
			}
		}
	}
	return blockNone, rewrites
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

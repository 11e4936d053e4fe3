// Package ps implements the core Percolation Scheduling transformations
// of the paper's section 2: move-op (Figure 2), move-cj (Figure 3),
// within-node hoisting (speculation past a conditional jump under IBM
// VLIW path semantics), renaming, and the copy propagation that lets
// operations move past copies.
//
// Every transformation is semantics-preserving; the test suite proves
// this by simulation. The package exposes Can/Do pairs plus StepUp, the
// one-edge upward move the schedulers build migration from.
package ps

import (
	"fmt"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
)

// BlockKind classifies why an operation could not move.
type BlockKind int

// Block kinds. BlockDep covers strict data dependences (and control
// dependences such as a store refusing to pass a branch); BlockResource
// means the target instruction is full — the situation that creates the
// paper's resource barriers; BlockStructure covers graph-shape limits
// (program entry reached, multiple predecessors, nested branches).
const (
	BlockNone BlockKind = iota
	BlockDep
	BlockResource
	BlockStructure
	BlockFrozen
)

// String names the block kind.
func (k BlockKind) String() string {
	switch k {
	case BlockNone:
		return "none"
	case BlockDep:
		return "dep"
	case BlockResource:
		return "resource"
	case BlockStructure:
		return "structure"
	case BlockFrozen:
		return "frozen"
	}
	return fmt.Sprintf("block(%d)", int(k))
}

// Block describes a failed move.
type Block struct {
	Kind BlockKind
	// By is the operation responsible for a BlockDep, when identifiable:
	// the producer the mover depends on, or the branch a store refuses
	// to pass. Nil for environmental blocks (liveness on a frozen exit
	// path).
	By *ir.Op
}

var blockNone = Block{Kind: BlockNone}

// Ctx carries the graph, the machine model, and the exit-liveness
// interface through a scheduling session, and counts transformation
// statistics.
type Ctx struct {
	G *graph.Graph
	M machine.Machine

	// ExitLive lists the registers observable when the program exits
	// (the destinations of live-out epilogue copies). Used by the
	// write-live test for speculative hoisting.
	ExitLive map[ir.Reg]bool

	// D, when set, is the dependence graph of the program being
	// transformed. The transformations do not consult it — their
	// legality scans read the live registers — but they report every
	// committed operand rewrite (copy propagation, renaming) to it so
	// its precomputed bit-matrices know which ops went stale. Set it
	// only when something queries those matrices after the rewrites
	// (POST, unifiable); GRiP's priority reads build-time counts only.
	D *deps.DDG

	// CrossCheck runs the retained reference dependence scans next to
	// the two summary-filtered fast paths — the committed-path check
	// and the move-past-read scan — and panics on the first divergence
	// (a summary-maintenance bug, on par with a corrupted graph
	// invariant). A testing hook: it cannot change any verdict, only
	// verify it. core.Options.CrossCheck switches it on for the
	// duration of a scheduling run.
	CrossCheck bool

	// Stats.
	Moves   int // successful move-op steps
	Hoists  int // successful speculation hoists
	CJMoves int // successful move-cj steps
	Splices int // empty nodes removed
	Renames int // renaming transformations applied

	// plCache memoizes predLeaf per target node within one graph
	// version: legality probes burst against the same few frontier
	// nodes between mutations (the Gapless-move search alone asks
	// about one node once per candidate), and each miss re-walks
	// SinglePred + LeafTo. Version stamps make entries self-
	// invalidating; collisions just recompute.
	plCache [64]predLeafEntry
}

type predLeafEntry struct {
	n       *graph.Node
	version uint64
	t       *graph.Node
	leaf    *graph.Vertex
	blk     Block
}

// NewCtx returns a transformation context.
func NewCtx(g *graph.Graph, m machine.Machine, exitLive map[ir.Reg]bool) *Ctx {
	if exitLive == nil {
		exitLive = map[ir.Reg]bool{}
	}
	return &Ctx{G: g, M: m, ExitLive: exitLive}
}

// noteRewrite records that op's operands were just rewritten, keeping
// the dependence matrices honest.
func (c *Ctx) noteRewrite(op *ir.Op) {
	if c.D != nil {
		c.D.MarkRewritten(op)
	}
}

// predLeaf returns the unique predecessor node of n and the leaf in it
// that points at n, or a structural block. Percolation moves operations
// up one edge at a time; a node reached by several edges would need the
// unification transformation, which the unwound loops this repository
// schedules never require (every node has one predecessor until the loop
// is re-formed).
func (c *Ctx) predLeaf(n *graph.Node) (*graph.Node, *graph.Vertex, Block) {
	e := &c.plCache[uint(n.ID)&63]
	if e.n != n || e.version != c.G.Version() {
		c.predLeafFill(n, e)
	}
	return e.t, e.leaf, e.blk
}

// predLeafFill recomputes a missed cache entry. Kept out of predLeaf so
// the hit path stays within the inlining budget.
func (c *Ctx) predLeafFill(n *graph.Node, e *predLeafEntry) {
	t, leaf, blk := predLeafEval(c.G, n)
	*e = predLeafEntry{n: n, version: c.G.Version(), t: t, leaf: leaf, blk: blk}
}

func predLeafEval(g *graph.Graph, n *graph.Node) (*graph.Node, *graph.Vertex, Block) {
	t := g.SinglePred(n)
	if t == nil || t == n {
		return nil, nil, Block{Kind: BlockStructure}
	}
	if l := t.LeafTo(n); l != nil {
		return t, l, blockNone
	}
	return nil, nil, Block{Kind: BlockStructure}
}

// pathOps calls f for every operation committed on the path from the
// root of leaf's node down to leaf (the operations a mover would be
// inserted after, value-wise). Branches on the path are passed to fb.
func pathOps(leaf *graph.Vertex, f func(*ir.Op) bool, fb func(*ir.Op) bool) bool {
	// Collect root -> leaf chain. Instruction trees are shallow (depth
	// bounded by the branch-slot budget), so the stack buffer makes the
	// per-step scan allocation-free under every paper machine. An
	// unlimited-branch machine can exceed 8 vertices; the append then
	// grows onto the heap with nothing dropped
	// (TestPathOpsDeepTreeOverflowsCorrectly).
	var buf [8]*graph.Vertex
	chain := buf[:0]
	for v := leaf; v != nil; v = v.Parent() {
		chain = append(chain, v)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		v := chain[i]
		for _, op := range v.Ops {
			if !f(op) {
				return false
			}
		}
		if v.CJ != nil && fb != nil {
			if !fb(v.CJ) {
				return false
			}
		}
	}
	return true
}

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
// (program entry reached, a self-loop, nested branches).
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

	// D is unread: the transformations' legality scans read the live
	// registers, and nothing in this package consults a dependence
	// graph. It stays only because gripbench/replica.go assigns it;
	// delete it once that assignment goes.
	D *deps.DDG

	// CrossCheck runs the retained full move-past-read walk next to the
	// use-mask-gated scan and panics on the first divergence (a
	// mask-maintenance bug, on par with a corrupted graph invariant).
	// A testing hook: it cannot change any verdict, only verify it.
	// core.Options.CrossCheck switches it on for the duration of a
	// scheduling run.
	CrossCheck bool

	// Stats.
	Moves   int // successful move-op steps
	Hoists  int // successful speculation hoists
	CJMoves int // successful move-cj steps
	Renames int // renaming transformations applied
}

// NewCtx returns a transformation context.
func NewCtx(g *graph.Graph, m machine.Machine, exitLive map[ir.Reg]bool) *Ctx {
	if exitLive == nil {
		exitLive = map[ir.Reg]bool{}
	}
	return &Ctx{G: g, M: m, ExitLive: exitLive}
}

// predLeaf returns the unique predecessor node of n and the leaf in it
// that points at n, or a structural block. Percolation moves operations
// up one edge at a time; the graph gives every node at most one
// incoming edge (a node reached by several would need the unification
// transformation, which this repository does not implement).
func (c *Ctx) predLeaf(n *graph.Node) (*graph.Node, *graph.Vertex, Block) {
	l := n.In()
	if l == nil || l.Node() == n {
		return nil, nil, Block{Kind: BlockStructure}
	}
	return l.Node(), l, blockNone
}

package graph

import (
	"fmt"

	"repro/internal/ir"
)

// Graph is a VLIW program graph. All structural mutation must go through
// Graph methods so that incoming edges, operation placements, and
// cached node op counts stay consistent;
// Validate cross-checks every invariant and is run liberally in tests.
// Each node records the one leaf whose edge enters it (Node.In), and
// successors are read off the node's leaves; a second edge into a node
// panics.
type Graph struct {
	Entry *Node
	Alloc *ir.Alloc

	// Label identifies the program for diagnostics (the source loop's
	// name and fingerprint prefix, set by the unwinder). It has no
	// structural meaning; the simulator stamps it into cycle-budget
	// errors so fuzz-found livelocks are attributable from logs alone.
	Label string

	nodes map[*Node]bool

	// numPlaced counts the ops (branches included) whose placement slot
	// points into this graph; Validate compares it with the ops its walk
	// reaches.
	numPlaced int

	version    uint64
	epoch      uint64
	nextNodeID int
	maxPos     float64

	// onOpHome, when set, observes every event that changes which node
	// (if any) holds an operation: placement, removal, and re-homing via
	// subtree adoption. Schedulers register it for the duration of a run
	// so incrementally maintained candidate structures hear about ops
	// whose home changed underneath them (see SetOpHomeHook).
	onOpHome func(op *ir.Op, from *Node)
}

// New returns an empty graph sharing the given allocator.
func New(alloc *ir.Alloc) *Graph {
	if alloc == nil {
		alloc = ir.NewAlloc()
	}
	return &Graph{
		Alloc: alloc,
		nodes: make(map[*Node]bool),
	}
}

// loc returns op's placement in this graph, or nil. Placement lives
// only in the op-resident slot, a line the caller has usually just
// touched. The owning-graph test rejects placements held over from
// another graph (clone sources, stale pointers into a discarded graph).
func (g *Graph) loc(op *ir.Op) *Vertex {
	if v, ok := op.Placement().(*Vertex); ok && v.node.g == g {
		return v
	}
	return nil
}

// setLoc places op at v.
func (g *Graph) setLoc(op *ir.Op, v *Vertex) {
	op.SetPlacement(v)
	g.numPlaced++
	if g.onOpHome != nil {
		g.onOpHome(op, nil)
	}
}

// clearLoc unplaces op; an op not placed in this graph is left alone.
func (g *Graph) clearLoc(op *ir.Op) {
	v := g.loc(op)
	if v == nil {
		return
	}
	op.SetPlacement(nil)
	g.numPlaced--
	if g.onOpHome != nil {
		g.onOpHome(op, v.node)
	}
}

// SetOpHomeHook registers f to be called after every mutation that
// changes an operation's home: AddOp/RemoveOp/MoveOp (via setLoc and
// clearLoc), branch placement and detachment, and AdoptSubtree
// re-homing a whole tree. from is the node op left — nil for a
// placement, whose new home is g.NodeOf(op) — so a scheduler can key
// its reactions by node. It returns the previously registered hook so
// callers can save and restore around a scheduling run. The hook fires
// mid-mutation (counts and edges may be half-updated) and must not
// read node counts or mutate the graph; it exists so schedulers can
// maintain incremental candidate structures (see internal/core) without
// rescanning: membership updates happen at the mutation site, in O(1)
// per affected op.
func (g *Graph) SetOpHomeHook(f func(op *ir.Op, from *Node)) func(op *ir.Op, from *Node) {
	prev := g.onOpHome
	g.onOpHome = f
	return prev
}

// Version changes whenever the graph structure or op placement changes.
// Schedulers use it as the invalidation generation for memoized probe
// results (see DESIGN.md): any cached answer stamped with an older
// version must be recomputed.
func (g *Graph) Version() uint64 { return g.version }

func (g *Graph) bump() { g.version++ }

// BeginVisit starts a fresh traversal epoch for Node.Visited marks.
// Traversals that used to allocate a map[*Node]bool per call mark nodes
// against the epoch instead. A traversal must finish with its epoch
// before the next BeginVisit; graphs are confined to one goroutine.
func (g *Graph) BeginVisit() uint64 {
	g.epoch++
	return g.epoch
}

// NewNode creates a node whose tree is a single leaf with no successor.
// Its position key places it after every existing node; use SetPos or
// PlaceBetween when inserting mid-chain.
func (g *Graph) NewNode() *Node {
	g.nextNodeID++
	g.maxPos++
	n := &Node{ID: g.nextNodeID, g: g, pos: g.maxPos}
	n.Root = &Vertex{node: n}
	g.nodes[n] = true
	g.bump()
	return n
}

// SetPos overrides a node's order-maintenance key. It bumps the graph
// version: position keys feed the schedulers' below-the-frontier tests,
// so memoized probe results stamped before the change must not survive.
func (g *Graph) SetPos(n *Node, pos float64) {
	n.pos = pos
	if pos > g.maxPos {
		g.maxPos = pos
	}
	g.bump()
}

// PlaceBetween keys n halfway between a and b (either may be nil for
// "before everything" / "after everything").
func (g *Graph) PlaceBetween(n, a, b *Node) {
	switch {
	case a == nil && b == nil:
		g.maxPos++
		n.pos = g.maxPos
	case a == nil:
		n.pos = b.pos - 1
	case b == nil:
		g.SetPos(n, a.pos+1)
	default:
		n.pos = (a.pos + b.pos) / 2
	}
	g.bump()
}

// NodeIDBound returns one more than the largest node ID issued so far,
// so a table indexed by Node.ID of that length covers every node that
// exists now. Later NewNode calls raise it.
func (g *Graph) NodeIDBound() int { return g.nextNodeID + 1 }

// Has reports whether n is a live node of this graph.
func (g *Graph) Has(n *Node) bool { return g.nodes[n] }

// Where returns the vertex currently holding op (branches included), or
// nil if the op is not placed.
func (g *Graph) Where(op *ir.Op) *Vertex { return g.loc(op) }

// NodeOf returns the node currently holding op, or nil.
func (g *Graph) NodeOf(op *ir.Op) *Node {
	if v := g.loc(op); v != nil {
		return v.node
	}
	return nil
}

// link records leaf's edge as the one entering leaf.Succ. A second
// incoming edge panics: move-op and move-cj take an op into a node's
// unique predecessor, and a node reached by several edges would need
// the unification transformation, which this reproduction does not
// implement.
func link(leaf *Vertex) {
	to := leaf.Succ
	if to == nil {
		return
	}
	if to.in != nil {
		panic(fmt.Sprintf("graph: second edge into n%d (from n%d, already from n%d)", to.ID, leaf.node.ID, to.in.node.ID))
	}
	to.in = leaf
}

// unlink forgets leaf's edge into leaf.Succ.
func unlink(leaf *Vertex) {
	to := leaf.Succ
	if to == nil {
		return
	}
	if to.in != leaf {
		panic(fmt.Sprintf("graph: unlink of absent edge n%d->n%d", leaf.node.ID, to.ID))
	}
	to.in = nil
}

// RetargetLeaf points leaf at succ (nil for program exit), maintaining
// incoming edges; succ must have no incoming edge yet.
func (g *Graph) RetargetLeaf(leaf *Vertex, succ *Node) {
	if !leaf.IsLeaf() {
		panic("graph: RetargetLeaf on non-leaf vertex")
	}
	unlink(leaf)
	leaf.Succ = succ
	link(leaf)
	g.bump()
}

// AddOp places op at vertex v.
func (g *Graph) AddOp(op *ir.Op, v *Vertex) {
	if op.IsBranch() {
		panic("graph: AddOp with branch op")
	}
	if g.loc(op) != nil {
		panic("graph: op already placed")
	}
	v.Ops = append(v.Ops, op)
	g.setLoc(op, v)
	v.sum.addOp(op)
	if n := v.node; n != nil {
		n.opCount++
		n.noteOpAdded(op)
	}
	g.bump()
}

// RemoveOp detaches op from its vertex.
func (g *Graph) RemoveOp(op *ir.Op) {
	v := g.loc(op)
	if v == nil {
		panic("graph: RemoveOp of unplaced op")
	}
	if op.IsBranch() {
		panic("graph: RemoveOp with branch op; use branch transforms")
	}
	if !v.removeOp(op) {
		panic("graph: op location out of sync")
	}
	g.clearLoc(op)
	v.recomputeOwn()
	if n := v.node; n != nil {
		n.opCount--
		n.noteOpRemoved(op)
	}
	g.bump()
}

// MoveOp detaches op from its current vertex and re-attaches it at v.
func (g *Graph) MoveOp(op *ir.Op, v *Vertex) {
	g.RemoveOp(op)
	g.AddOp(op, v)
}

// InsertBranchAtLeaf replaces leaf with a branch vertex holding cj whose
// true side goes to tSucc and false side to fSucc (nil meaning program
// exit; one node cannot take both). The leaf's former successor edge is
// discarded; callers detach it first. The leaf's operations stay on the
// new branch vertex (they commit on both outcomes, exactly as they did
// when the vertex was a leaf). The two fresh leaf vertices are returned
// (true side first).
func (g *Graph) InsertBranchAtLeaf(leaf *Vertex, cj *ir.Op, tSucc, fSucc *Node) (*Vertex, *Vertex) {
	if !leaf.IsLeaf() {
		panic("graph: InsertBranchAtLeaf on non-leaf")
	}
	if !cj.IsBranch() {
		panic("graph: InsertBranchAtLeaf with non-branch op")
	}
	if g.loc(cj) != nil {
		panic("graph: branch already placed")
	}
	unlink(leaf)
	leaf.Succ = nil

	t := &Vertex{node: leaf.node, parent: leaf, Succ: tSucc}
	f := &Vertex{node: leaf.node, parent: leaf, Succ: fSucc}
	link(t)
	link(f)

	leaf.CJ = cj
	leaf.True = t
	leaf.False = f
	g.setLoc(cj, leaf)
	leaf.sum.addOp(cj)
	if n := leaf.node; n != nil {
		n.branchCount++
		n.noteOpAdded(cj)
	}
	g.bump()
	return t, f
}

// DetachBranchRoot removes the branch at the root vertex of n, which must
// have no incoming edge (callers retarget In() first): it returns
// the cj op (now unplaced) and the two subtrees, whose vertices still
// claim n as their node until adopted elsewhere. The node n is deleted
// from the graph; its root ops are returned for re-homing.
func (g *Graph) DetachBranchRoot(n *Node) (cj *ir.Op, rootOps []*ir.Op, trueSub, falseSub *Vertex) {
	r := n.Root
	if r.IsLeaf() {
		panic("graph: DetachBranchRoot on leaf root")
	}
	if n.in != nil {
		panic("graph: DetachBranchRoot of a node with an incoming edge")
	}
	cj = r.CJ
	g.clearLoc(cj)
	// Steal the root's op slice instead of copying it: the root vertex
	// is discarded with the node, so ownership transfers to the caller.
	rootOps, r.Ops = r.Ops, nil
	for _, op := range rootOps {
		g.clearLoc(op)
	}
	trueSub, falseSub = r.True, r.False
	// Unlink every outgoing edge of n but keep each leaf's Succ: the
	// subtrees are re-linked when adopted into new nodes.
	n.VisitLeaves(func(v *Vertex) bool {
		unlink(v)
		return true
	})
	delete(g.nodes, n)
	g.bump()
	return cj, rootOps, trueSub, falseSub
}

// AdoptSubtree makes sub the tree of fresh node n: vertex ownership moves
// to n, leaf edges are linked, and contained ops keep their locations.
// The node's previous root (a bare leaf from NewNode) is discarded.
func (g *Graph) AdoptSubtree(n *Node, sub *Vertex) {
	if n.Root != nil && (!n.Root.IsLeaf() || len(n.Root.Ops) != 0 || n.Root.Succ != nil) {
		panic("graph: AdoptSubtree over non-empty node")
	}
	sub.parent = nil
	n.Root = sub
	n.resetIterCounts()
	ops, branches := 0, 0
	var adopt func(v *Vertex)
	adopt = func(v *Vertex) {
		from := v.node
		v.node = n
		ops += len(v.Ops)
		for _, op := range v.Ops {
			n.noteOpAdded(op)
			if g.onOpHome != nil {
				g.onOpHome(op, from)
			}
		}
		if v.IsLeaf() {
			link(v)
			return
		}
		branches++
		n.noteOpAdded(v.CJ)
		if g.onOpHome != nil {
			g.onOpHome(v.CJ, from)
		}
		adopt(v.True)
		adopt(v.False)
	}
	adopt(sub)
	n.opCount = ops
	n.branchCount = branches
	g.bump()
}

// HoistOp moves op from its vertex to the parent vertex (one step toward
// the root, past one conditional jump). Legality is the caller's job.
func (g *Graph) HoistOp(op *ir.Op) {
	v := g.loc(op)
	if v == nil || v.parent == nil {
		panic("graph: HoistOp at root or unplaced")
	}
	g.MoveOp(op, v.parent)
}

// SpliceOutEmpty removes an empty single-leaf node from the graph,
// redirecting its incoming edge to its fall-through successor. The
// entry pointer is updated if needed. It reports whether the splice
// happened.
func (g *Graph) SpliceOutEmpty(n *Node) bool {
	if !n.Empty() {
		return false
	}
	leaf := n.Root // empty ⇒ branch-free ⇒ the root is the only leaf
	succ := leaf.Succ
	if succ == n { // self-loop; cannot splice
		return false
	}
	// Clear n's own edge first, so the leaf into n can become succ's
	// one incoming edge.
	g.RetargetLeaf(leaf, nil)
	if in := n.in; in != nil {
		g.RetargetLeaf(in, succ)
	}
	if g.Entry == n {
		g.Entry = succ
	}
	delete(g.nodes, n)
	g.bump()
	return true
}

// InsertBefore creates a fresh empty node in front of n: n's incoming
// edge is redirected to the new node, whose single leaf falls through
// to n, and the new node's position key lies between n's predecessor
// and n. Entry is updated if n was the entry. Used for the paper's
// "empty instructions at the beginning of the program" mitigation and
// by the POST node-breaking pass.
func (g *Graph) InsertBefore(n *Node) *Node {
	nn := g.NewNode()
	g.PlaceBetween(nn, n.Pred(), n)
	if in := n.in; in != nil {
		g.RetargetLeaf(in, nn)
	}
	g.RetargetLeaf(nn.Root, n)
	if g.Entry == n {
		g.Entry = nn
	}
	return nn
}

// Order returns the nodes in a deterministic reverse-postorder from the
// entry (drain paths included), for printing and export.
func (g *Graph) Order() []*Node {
	post := make([]*Node, 0, len(g.nodes))
	epoch := g.BeginVisit()
	var dfs func(n *Node)
	dfs = func(n *Node) {
		if n == nil || n.Visited(epoch) {
			return
		}
		n.VisitLeaves(func(l *Vertex) bool {
			dfs(l.Succ)
			return true
		})
		post = append(post, n)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// MainChain returns the non-drain spine of the graph: starting at entry,
// repeatedly following the unique non-drain successor. This is the
// instruction sequence whose rows form the pipelined schedule.
func (g *Graph) MainChain() []*Node {
	var chain []*Node
	epoch := g.BeginVisit()
	for n := g.Entry; n != nil && !n.Visited(epoch); {
		chain = append(chain, n)
		n = n.NonDrainSucc()
	}
	return chain
}

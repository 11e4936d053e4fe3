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

	// nodes is the node table: every live node n sits at nodes[n.ID].
	// newNode issues IDs in creation order from 1 (slot 0 is unused) and
	// never reuses one; deleting a node nils its slot.
	nodes []*Node

	// numPlaced counts the ops (branches included) whose placement slot
	// points into this graph; Validate compares it with the ops its walk
	// reaches.
	numPlaced int

	version uint64
	epoch   uint64

	// onOpHome, when set, observes every event that changes which node
	// (if any) holds an operation: placement, removal, and re-homing via
	// subtree adoption. Schedulers register it for the duration of a run
	// so incrementally maintained candidate structures hear about ops
	// whose home changed underneath them (see SetOpHomeHook).
	onOpHome func(op *ir.Op, from *Node)
}

// New returns an empty graph sharing the given allocator.
func New(alloc *ir.Alloc) *Graph {
	return &Graph{
		Alloc: alloc,
		nodes: make([]*Node, 1),
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
// results (see DESIGN.md §2.2): a cached answer stamped with an older
// version is still exact only while every node it read has an
// unchanged Touched stamp.
func (g *Graph) Version() uint64 { return g.version }

func (g *Graph) bump() { g.version++ }

// touch stamps n (nil allowed) with the current version. Mutators call
// it right after their last bump, for every node whose tree, ops,
// counts, position or incoming leaf the call changed, so a node's stamp
// is the version its last mutating call left.
func (g *Graph) touch(n *Node) {
	if n != nil {
		n.touched = g.version
	}
}

// touchAround touches n and every successor of n's leaves: the nodes a
// mutator that links or unlinks all of n's leaf edges changes.
func (g *Graph) touchAround(n *Node) {
	g.touch(n)
	n.VisitLeaves(func(l *Vertex) bool {
		g.touch(l.Succ)
		return true
	})
}

// BeginVisit starts a fresh traversal epoch for Node.Visited marks.
// Traversals that used to allocate a map[*Node]bool per call mark nodes
// against the epoch instead. A traversal must finish with its epoch
// before the next BeginVisit; graphs are confined to one goroutine.
func (g *Graph) BeginVisit() uint64 {
	g.epoch++
	return g.epoch
}

// newNode files a node with tree root under the next ID, at position
// key pos. It is the one constructor: the node adopts root's vertices
// and their ops (contained ops keep their vertices), links root's leaf
// edges, and counts what it adopted.
func (g *Graph) newNode(root *Vertex, pos float64) *Node {
	n := &Node{ID: len(g.nodes), Root: root, g: g, pos: pos}
	g.nodes = append(g.nodes, n)
	root.parent = nil
	g.adopt(n, root)
	g.bump()
	g.touchAround(n)
	return n
}

// adopt makes v's subtree part of n's tree, reporting each op's new
// home to the op-home hook.
func (g *Graph) adopt(n *Node, v *Vertex) {
	from := v.node
	v.node = n
	n.opCount += int32(len(v.Ops))
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
	n.branchCount++
	n.noteOpAdded(v.CJ)
	if g.onOpHome != nil {
		g.onOpHome(v.CJ, from)
	}
	g.adopt(n, v.True)
	g.adopt(n, v.False)
}

// NewNode creates a node whose tree is a single leaf with no successor.
// Its position key is its ID, which places it after every existing
// node: InsertBefore keys a node below an existing key and AdoptSubtree
// reuses one.
func (g *Graph) NewNode() *Node {
	return g.newNode(&Vertex{}, float64(len(g.nodes)))
}

// NodeIDBound returns one more than the largest node ID issued so far,
// so a table indexed by Node.ID of that length covers every node that
// exists now. Later node creations raise it.
func (g *Graph) NodeIDBound() int { return len(g.nodes) }

// Has reports whether n is a live node of this graph. A clone's node
// has its source's ID but is not the node filed under it.
func (g *Graph) Has(n *Node) bool { return n.ID < len(g.nodes) && g.nodes[n.ID] == n }

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
	old := leaf.Succ
	unlink(leaf)
	leaf.Succ = succ
	link(leaf)
	g.bump()
	g.touch(leaf.node)
	g.touch(old)
	g.touch(succ)
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
	v.uses |= useMask(op)
	if n := v.node; n != nil {
		n.opCount++
		n.noteOpAdded(op)
	}
	g.bump()
	g.touch(v.node)
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
	v.recomputeUses()
	if n := v.node; n != nil {
		n.opCount--
		n.noteOpRemoved(op)
	}
	g.bump()
	g.touch(v.node)
}

// MoveOp detaches op from its current vertex and re-attaches it at v.
func (g *Graph) MoveOp(op *ir.Op, v *Vertex) {
	from := g.NodeOf(op)
	g.RemoveOp(op)
	g.AddOp(op, v)
	g.touch(from)
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
	old := leaf.Succ
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
	leaf.uses |= useMask(cj)
	if n := leaf.node; n != nil {
		n.branchCount++
		n.noteOpAdded(cj)
	}
	g.bump()
	g.touch(leaf.node)
	g.touch(old)
	g.touch(tSucc)
	g.touch(fSucc)
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
	g.nodes[n.ID] = nil
	g.bump()
	g.touchAround(n)
	return cj, rootOps, trueSub, falseSub
}

// AdoptSubtree creates a node at position key pos whose tree is sub, a
// subtree DetachBranchRoot returned: vertex ownership moves to the new
// node, leaf edges are linked, contained ops keep their locations, and
// the node's counts are rebuilt from the tree. pos must be a key already
// in use (move-cj passes the split node's), so NewNode's keys stay
// above every other.
func (g *Graph) AdoptSubtree(sub *Vertex, pos float64) *Node {
	return g.newNode(sub, pos)
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
// entry pointer is updated if needed. A node that holds operations or
// loops to itself stays.
func (g *Graph) SpliceOutEmpty(n *Node) {
	if !n.Empty() {
		return
	}
	leaf := n.Root // empty ⇒ branch-free ⇒ the root is the only leaf
	succ := leaf.Succ
	if succ == n { // self-loop; cannot splice
		return
	}
	// Clear n's own edge first, so the leaf into n can become succ's
	// one incoming edge.
	g.RetargetLeaf(leaf, nil)
	in := n.in
	if in != nil {
		g.RetargetLeaf(in, succ)
	}
	if g.Entry == n {
		g.Entry = succ
	}
	g.nodes[n.ID] = nil
	g.bump()
	g.touch(succ)
	if in != nil {
		g.touch(in.node)
	}
}

// InsertBefore creates a fresh empty node in front of n: n's incoming
// edge is redirected to the new node, whose single leaf falls through
// to n, and the new node's position key lies halfway between n's
// predecessor and n, or one below n's when n has none. Entry is updated
// if n was the entry. Used for the paper's "empty instructions at the
// beginning of the program" mitigation and by the POST node-breaking
// pass.
func (g *Graph) InsertBefore(n *Node) *Node {
	in := n.in
	pos := n.pos - 1
	if in != nil {
		pos = (in.node.pos + n.pos) / 2
	}
	nn := g.newNode(&Vertex{}, pos)
	if in != nil {
		g.RetargetLeaf(in, nn)
	}
	g.RetargetLeaf(nn.Root, n) // touches nn and n last
	if g.Entry == n {
		g.Entry = nn
	}
	if in != nil {
		g.touch(in.node)
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

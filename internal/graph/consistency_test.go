package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ir"
)

// TestRandomMutationsKeepCachesConsistent drives long random sequences
// of graph mutations — op placement (frozen ops included) and
// movement, branch insertion, leaf retargeting, node insertion and
// splicing, move-cj style node splits, and in-place operand rewrites —
// and after every step lets Validate cross-check the incremental caches
// (incoming leaves, per-iteration schedulable counts, op/branch counts,
// op placements, use masks) against full recounts. New edges
// only enter nodes that have none (one incoming edge per node). This
// is the consistency property the walk-free schedulers rely on: no
// sequence of mutator calls may drift a cache from the structure it
// summarizes. Every mutator call is also checked against a per-node
// snapshot (nodeState): each node whose op lists, counts, position,
// leaf successors or incoming leaf the call changed, and each node it
// created, must carry Touched() == Version() afterwards, the change
// stamp the Gapless-move memo revalidates verdicts by.
//
// Operations draw registers from a small shared pool, so removals hit
// the case where several ops contribute the same summary bit, and the
// mix includes loads, stores (direct and indirect) and copies, so every
// operand-rewrite path is exercised. The pool spans register ids past
// 64, so distinct registers share a mask bit: the final spot check
// requires the use masks to have no false negatives under those
// collisions.
func TestRandomMutationsKeepCachesConsistent(t *testing.T) {
	collisions := 0
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			al := ir.NewAlloc()
			g := New(al)

			// Six pool registers in three mask-bit classes:
			// {r1, r65, r129}, {r2, r66} and {r3}.
			var regs []ir.Reg
			for i := 0; i < 130; i++ {
				switch r := al.Reg(); r {
				case 1, 2, 3, 65, 66, 129:
					regs = append(regs, r)
				}
			}
			arr := al.Array("A")
			randReg := func() ir.Reg { return regs[rng.Intn(len(regs))] }

			var placed []*ir.Op // placed non-branch ops
			origin := 0
			newOp := func(iter int) *ir.Op {
				op := &ir.Op{ID: al.OpID(), Origin: origin, Iter: iter}
				origin++
				switch rng.Intn(5) {
				case 0:
					op.Kind, op.Dst, op.Imm = ir.Const, randReg(), int64(origin)
				case 1:
					op.Kind, op.Dst = ir.Add, randReg()
					op.Src = [2]ir.Reg{randReg(), randReg()}
				case 2:
					op.Kind, op.Dst = ir.Copy, randReg()
					op.Src = [2]ir.Reg{randReg()}
				case 3:
					op.Kind, op.Dst = ir.Load, randReg()
					op.Mem = ir.MemRef{Array: arr, Index: int64(rng.Intn(4))}
					if rng.Intn(2) == 0 {
						op.Mem.IndexReg = randReg()
					}
				case 4:
					op.Kind = ir.Store
					op.Src = [2]ir.Reg{randReg()}
					op.Mem = ir.MemRef{Array: arr, Index: int64(rng.Intn(4))}
				}
				return op
			}

			// Seed chain: six single-op nodes over three iterations.
			var tail *Node
			for i := 0; i < 6; i++ {
				op := newOp(i % 3)
				tail = AppendOp(g, tail, op)
				placed = append(placed, op)
			}

			// liveNodes lists the nodes in ID order, a deterministic pick
			// order under a seeded rng.
			liveNodes := func() []*Node {
				var ns []*Node
				for _, n := range g.nodes {
					if n != nil {
						ns = append(ns, n)
					}
				}
				return ns
			}
			randNode := func() *Node {
				ns := liveNodes()
				return ns[rng.Intn(len(ns))]
			}
			// randFree returns a random node with no incoming edge, or
			// nil when every node has one.
			randFree := func() *Node {
				var free []*Node
				for _, n := range liveNodes() {
					if n.In() == nil {
						free = append(free, n)
					}
				}
				if len(free) == 0 {
					return nil
				}
				return free[rng.Intn(len(free))]
			}
			randVertex := func(n *Node) *Vertex {
				var vs []*Vertex
				n.Walk(func(v *Vertex) { vs = append(vs, v) })
				return vs[rng.Intn(len(vs))]
			}
			prunePlaced := func() {
				w := 0
				for _, op := range placed {
					if g.Where(op) != nil {
						placed[w] = op
						w++
					}
				}
				placed = placed[:w]
			}
			// defClash reports whether putting a definition of d at v
			// would break the single-definition-per-path invariant the
			// schedulers maintain (conservative: the op being moved is
			// not excluded, so an in-subtree move may skip needlessly).
			defines := func(v *Vertex, d ir.Reg) bool {
				for _, p := range v.Ops {
					if p.Def() == d {
						return true
					}
				}
				return false
			}
			defClash := func(v *Vertex, d ir.Reg) bool {
				if d == ir.NoReg {
					return false
				}
				below := false
				v.walk(func(w *Vertex) { below = below || defines(w, d) })
				if below {
					return true
				}
				for a := v.Parent(); a != nil; a = a.Parent() {
					if defines(a, d) {
						return true
					}
				}
				return false
			}

			step := 0
			// mutate runs one mutator call and checks its change stamps.
			mutate := func(what string, f func()) {
				before := make(map[*Node]string, len(g.nodes))
				for _, n := range liveNodes() {
					before[n] = nodeState(n)
				}
				f()
				for _, n := range liveNodes() {
					if b, ok := before[n]; (!ok || b != nodeState(n)) && n.Touched() != g.Version() {
						t.Fatalf("seed %d step %d: %s changed n%d but left it touched at %d, version %d\nbefore: %s\nafter:  %s",
							seed, step, what, n.ID, n.Touched(), g.Version(), b, nodeState(n))
					}
				}
			}

			for ; step < 250; step++ {
				switch rng.Intn(10) {
				case 0: // place a fresh op (NoIter included, sometimes frozen)
					iter := rng.Intn(5) - 1
					op := newOp(iter)
					if rng.Intn(4) == 0 {
						op.Frozen = true
					}
					v := randVertex(randNode())
					if defClash(v, op.Def()) {
						continue
					}
					mutate("AddOp", func() { g.AddOp(op, v) })
					placed = append(placed, op)
				case 1: // remove a placed op
					prunePlaced()
					if len(placed) > 0 {
						i := rng.Intn(len(placed))
						mutate("RemoveOp", func() { g.RemoveOp(placed[i]) })
						placed = append(placed[:i], placed[i+1:]...)
					}
				case 2: // move a placed op to a random vertex
					prunePlaced()
					if len(placed) > 0 {
						op := placed[rng.Intn(len(placed))]
						v := randVertex(randNode())
						if defClash(v, op.Def()) {
							continue
						}
						mutate("MoveOp", func() { g.MoveOp(op, v) })
					}
				case 3: // grow a branch at a random leaf
					n := randNode()
					if n.BranchCount() >= 3 {
						continue // keep trees small
					}
					ls := leaves(n)
					leaf := ls[rng.Intn(len(ls))]
					cj := &ir.Op{ID: al.OpID(), Origin: origin, Iter: rng.Intn(3), Kind: ir.CJ,
						Src: [2]ir.Reg{randReg()}, Imm: 1, BImm: true, Rel: ir.Lt}
					origin++
					mutate("RetargetLeaf", func() { g.RetargetLeaf(leaf, nil) })
					var tSucc, fSucc *Node
					if rng.Intn(2) == 0 {
						tSucc = randFree()
					}
					if rng.Intn(2) == 0 {
						if fSucc = randFree(); fSucc == tSucc {
							fSucc = nil
						}
					}
					mutate("InsertBranchAtLeaf", func() { g.InsertBranchAtLeaf(leaf, cj, tSucc, fSucc) })
				case 4: // retarget a random leaf (nil allowed)
					n := randNode()
					ls := leaves(n)
					leaf := ls[rng.Intn(len(ls))]
					var succ *Node
					if rng.Intn(3) > 0 {
						succ = randFree()
					}
					mutate("RetargetLeaf", func() { g.RetargetLeaf(leaf, succ) })
				case 5: // insert an empty node before a random one
					n := randNode()
					mutate("InsertBefore", func() { g.InsertBefore(n) })
				case 6: // splice an empty node out (no-op unless empty)
					n := randNode()
					if n == g.Entry && n.Root.Succ == nil {
						continue // would leave the graph entry-less
					}
					mutate("SpliceOutEmpty", func() { g.SpliceOutEmpty(n) })
				case 7: // rewrite a use in place (copy propagation's mutation)
					prunePlaced()
					if len(placed) == 0 {
						continue
					}
					op := placed[rng.Intn(len(placed))]
					var buf [3]ir.Reg
					uses := op.Uses(buf[:0])
					if len(uses) == 0 {
						continue
					}
					from, to := uses[rng.Intn(len(uses))], randReg()
					mutate("ReplaceUse", func() { g.ReplaceUse(op, from, to) })
				case 8: // retarget a destination in place (renaming's mutation)
					prunePlaced()
					if len(placed) == 0 {
						continue
					}
					op := placed[rng.Intn(len(placed))]
					if op.IsStore() {
						continue
					}
					r := randReg()
					if defClash(g.Where(op), r) {
						continue
					}
					mutate("RetargetDef", func() { g.RetargetDef(op, r) })
				case 9: // split a branch-rooted unreferenced node (move-cj shape)
					var n *Node
					for _, cand := range liveNodes() {
						if cand != g.Entry && !cand.Root.IsLeaf() && cand.In() == nil {
							n = cand
							break
						}
					}
					if n == nil {
						continue
					}
					var cj *ir.Op
					var rootOps []*ir.Op
					var tSub, fSub *Vertex
					mutate("DetachBranchRoot", func() { cj, rootOps, tSub, fSub = g.DetachBranchRoot(n) })
					var tn, fn *Node
					mutate("AdoptSubtree", func() { tn = g.AdoptSubtree(tSub, n.Pos()) })
					for _, o := range rootOps {
						mutate("AddOp", func() { g.AddOp(o, tSub) })
					}
					mutate("AdoptSubtree", func() { fn = g.AdoptSubtree(fSub, n.Pos()) })
					fn.Drain = true
					for _, o := range rootOps {
						c := o.Clone(al.OpID(), true)
						mutate("AddOp", func() { g.AddOp(c, fSub) })
						placed = append(placed, c)
					}
					// Re-home the detached branch at some leaf elsewhere.
					home := randNode()
					for home == tn || home == fn {
						home = randNode()
					}
					ls := leaves(home)
					leaf := ls[rng.Intn(len(ls))]
					mutate("RetargetLeaf", func() { g.RetargetLeaf(leaf, nil) })
					mutate("InsertBranchAtLeaf", func() { g.InsertBranchAtLeaf(leaf, cj, tn, fn) })
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}

			// Spot-check the O(1) reads against explicit recounts.
			for _, n := range liveNodes() {
				wantIters := n.recountIters()
				for iter := -1; iter < 6; iter++ {
					if got, want := n.IterCount(iter), int(wantIters[iter+1]); got != want {
						t.Fatalf("IterCount(%d) = %d, recount %d", iter, got, want)
					}
				}
			}

			// Spot-check MayRead against op-by-op walks, for every pool
			// register (Validate checks the internal mask; this checks
			// the exported answer against the vertex's op list): the
			// mask may over-approximate but never miss.
			for _, n := range liveNodes() {
				n.Walk(func(v *Vertex) {
					usesHere := map[ir.Reg]bool{}
					var buf [3]ir.Reg
					for _, op := range v.Ops {
						for _, u := range op.Uses(buf[:0]) {
							usesHere[u] = true
						}
					}
					if v.CJ != nil {
						for _, u := range v.CJ.Uses(buf[:0]) {
							usesHere[u] = true
						}
					}
					for _, r := range regs {
						if usesHere[r] && !v.MayRead(r) {
							t.Fatalf("n%d: MayRead(r%d) misses a read", n.ID, r)
						}
						if v.MayRead(r) && !usesHere[r] {
							collisions++
						}
					}
				})
			}
		})
	}
	if collisions == 0 {
		t.Error("no mask collision reached the spot check; the register pool no longer spans 64 ids")
	}
}

// nodeState renders what a node's change stamp covers: its position,
// counts and per-iteration counts, its incoming leaf (with that leaf's
// node), and its tree — every vertex with its ops and their operands,
// its branch, and a leaf's successor.
func nodeState(n *Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pos=%v ops=%d br=%d iters=%v in=%p", n.pos, n.opCount, n.branchCount, n.iterCounts, n.in)
	if n.in != nil {
		fmt.Fprintf(&b, "@n%d", n.in.node.ID)
	}
	n.Walk(func(v *Vertex) {
		fmt.Fprintf(&b, " [%p", v)
		for _, op := range v.Ops {
			fmt.Fprintf(&b, " %d:%v", op.ID, op)
		}
		if v.CJ != nil {
			fmt.Fprintf(&b, " cj %d:%v", v.CJ.ID, v.CJ)
		}
		if v.IsLeaf() && v.Succ != nil {
			fmt.Fprintf(&b, " ->n%d", v.Succ.ID)
		}
		b.WriteString("]")
	})
	return b.String()
}

// hubGraph builds a hub whose three branches end in four leaves, each
// into a successor of its own.
func hubGraph(al *ir.Alloc) (*Graph, *Node, []*Vertex, []*Node) {
	g := New(al)
	hub := g.NewNode()
	g.Entry = hub
	t0, f0 := g.InsertBranchAtLeaf(hub.Root, testCJ(al), nil, nil)
	t1, f1 := g.InsertBranchAtLeaf(t0, testCJ(al), nil, nil)
	t2, f2 := g.InsertBranchAtLeaf(f0, testCJ(al), nil, nil)
	ls := []*Vertex{t1, f1, t2, f2}
	var succs []*Node
	for _, leaf := range ls {
		s := g.NewNode()
		g.RetargetLeaf(leaf, s)
		succs = append(succs, s)
	}
	return g, hub, ls, succs
}

func testCJ(al *ir.Alloc) *ir.Op {
	return &ir.Op{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{al.Reg()}, Imm: 1, BImm: true, Rel: ir.Lt}
}

// TestEdgeSetOverflow checks a wide tree: a hub whose four leaves enter
// four distinct successors. Each successor's In and Pred name its own
// leaf of the hub, VisitSuccessors reads them in leaf order, and
// NonDrainSucc over several successors is ambiguous.
func TestEdgeSetOverflow(t *testing.T) {
	g, hub, ls, succs := hubGraph(ir.NewAlloc())
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := successors(hub); fmt.Sprint(got) != fmt.Sprint(succs) {
		t.Fatalf("hub successors = %v, want %v", got, succs)
	}
	for i, s := range succs {
		if s.In() != ls[i] || s.Pred() != hub {
			t.Fatalf("n%d: In/Pred do not name the hub's leaf %d", s.ID, i)
		}
	}
	if hub.In() != nil || hub.Pred() != nil {
		t.Fatal("the entry has an incoming edge")
	}
	if got := hub.NonDrainSucc(); got != nil {
		t.Fatalf("NonDrainSucc over 4 successors = n%d, want nil (ambiguous)", got.ID)
	}
}

// TestOneIncomingEdgePerNode: move-op and move-cj take an op into a
// node's unique predecessor, so the graph records one incoming leaf per
// node and panics on a second edge from every mutator that links one:
// RetargetLeaf, InsertBranchAtLeaf with both sides on one node, and
// AdoptSubtree. Validate rebuilds the incoming leaves from the leaf walk,
// so an edge or an in field changed behind the mutators is reported.
func TestOneIncomingEdgePerNode(t *testing.T) {
	al := ir.NewAlloc()
	for _, c := range []struct {
		name    string
		corrupt func(g *Graph, hub *Node, ls []*Vertex, succs []*Node)
		want    string
	}{
		{"a second leaf into a node", func(g *Graph, _ *Node, _ []*Vertex, succs []*Node) {
			g.NewNode().Root.Succ = succs[0]
		}, "second edge"},
		{"an in field cleared", func(_ *Graph, _ *Node, _ []*Vertex, succs []*Node) {
			succs[1].in = nil
		}, "incoming leaf"},
		{"an in field naming another leaf", func(_ *Graph, _ *Node, ls []*Vertex, succs []*Node) {
			succs[2].in = ls[0]
		}, "incoming leaf"},
		{"an in field on a node nothing enters", func(_ *Graph, hub *Node, ls []*Vertex, _ []*Node) {
			hub.in = ls[3]
		}, "incoming leaf"},
	} {
		g, hub, ls, succs := hubGraph(al)
		c.corrupt(g, hub, ls, succs)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", c.name, err, c.want)
		}
	}

	mustPanic(t, "RetargetLeaf", func() {
		g := New(al)
		a, b := g.NewNode(), g.NewNode()
		g.RetargetLeaf(a.Root, b)
		g.RetargetLeaf(g.NewNode().Root, b)
	})
	mustPanic(t, "InsertBranchAtLeaf", func() {
		g := New(al)
		s := g.NewNode()
		g.InsertBranchAtLeaf(g.NewNode().Root, testCJ(al), s, s)
	})
	mustPanic(t, "AdoptSubtree", func() {
		g := New(al)
		x, d := g.NewNode(), g.NewNode()
		g.InsertBranchAtLeaf(d.Root, testCJ(al), x, nil)
		_, _, tSub, _ := g.DetachBranchRoot(d) // unlinks tSub's edge into x
		g.RetargetLeaf(g.NewNode().Root, x)
		g.AdoptSubtree(tSub, d.Pos())
	})
}

// mustPanic fails the test unless f panics on a second edge into a node.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "second edge") {
			t.Errorf("%s: a second edge into a node panicked with %v, want a second-edge panic", what, r)
		}
	}()
	f()
}

// TestCloneVisitsSuccessorsInLeafOrder pins the order successors come
// in. They are read off the leaves, in left-first preorder, so a graph
// and its Clone visit corresponding successors alike even after random
// edge mutations have made the order edges were added in differ from the
// leaf order. New edges only enter nodes that have none.
func TestCloneVisitsSuccessorsInLeafOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		al := ir.NewAlloc()
		g := New(al)
		var ns []*Node
		for i := 0; i < 8; i++ {
			n := g.NewNode()
			n.Drain = rng.Intn(4) == 0
			ns = append(ns, n)
		}
		g.Entry = ns[0]
		// randSucc returns nil or a random node with no incoming edge.
		randSucc := func() *Node {
			var free []*Node
			for _, n := range ns {
				if n.In() == nil {
					free = append(free, n)
				}
			}
			if len(free) == 0 || rng.Intn(5) == 0 {
				return nil
			}
			return free[rng.Intn(len(free))]
		}
		for step := 0; step < 60; step++ {
			n := ns[rng.Intn(len(ns))]
			ls := leaves(n)
			leaf := ls[rng.Intn(len(ls))]
			if rng.Intn(3) == 0 && n.BranchCount() < 3 {
				cj := &ir.Op{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{al.Reg()}, Imm: 1, BImm: true, Rel: ir.Lt}
				g.RetargetLeaf(leaf, nil)
				tl, fl := g.InsertBranchAtLeaf(leaf, cj, nil, nil)
				g.RetargetLeaf(tl, randSucc())
				g.RetargetLeaf(fl, randSucc())
			} else {
				g.RetargetLeaf(leaf, randSucc())
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ng, _ := g.Clone(al.Clone())
		for _, n := range ns {
			// The expected order, from the leaves directly.
			var want []int
			for _, l := range leaves(n) {
				if l.Succ != nil {
					want = append(want, l.Succ.ID)
				}
			}
			for _, m := range []*Node{n, ng.nodes[n.ID]} {
				var got []int
				for _, s := range successors(m) {
					got = append(got, s.ID)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d: n%d visits successors %v, leaf order is %v", seed, m.ID, got, want)
				}
			}
		}
	}
}

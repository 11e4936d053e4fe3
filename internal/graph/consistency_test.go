package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ir"
)

// TestRandomMutationsKeepCachesConsistent drives long random sequences
// of graph mutations — op placement (frozen ops included) and
// movement, branch insertion, leaf retargeting, node insertion and
// splicing, move-cj style node splits, and in-place operand rewrites —
// and after every step lets Validate cross-check the incremental caches
// (compact predecessor sets, per-iteration schedulable counts, op/branch
// counts, op placements, def/use summaries) against full recounts. This
// is the consistency property the walk-free schedulers rely on: no
// sequence of mutator calls may drift a cache from the structure it
// summarizes.
//
// Operations draw registers from a small shared pool, so removals hit
// the case where several ops contribute the same summary bit, and the
// mix includes loads, stores (direct and indirect) and copies, so every
// operand-rewrite path is exercised. The pool spans register ids past
// 64, so distinct registers share a mask bit: the final spot check
// requires the masks to have no false negatives and DefSiteHere to stay
// exact under those collisions.
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
				switch r := al.Reg(""); r {
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

			liveNodes := func() []*Node {
				var ns []*Node
				for n := range g.nodes {
					ns = append(ns, n)
				}
				// Deterministic pick order under a seeded rng.
				for i := 1; i < len(ns); i++ {
					for j := i; j > 0 && ns[j-1].ID > ns[j].ID; j-- {
						ns[j-1], ns[j] = ns[j], ns[j-1]
					}
				}
				return ns
			}
			randNode := func() *Node {
				ns := liveNodes()
				return ns[rng.Intn(len(ns))]
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
			defClash := func(v *Vertex, d ir.Reg) bool {
				if d == ir.NoReg {
					return false
				}
				below := false
				v.walk(func(w *Vertex) {
					p, _ := w.DefSiteHere(d)
					below = below || p != nil
				})
				if below {
					return true
				}
				for a := v.Parent(); a != nil; a = a.Parent() {
					if p, _ := a.DefSiteHere(d); p != nil {
						return true
					}
				}
				return false
			}

			for step := 0; step < 250; step++ {
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
					g.AddOp(op, v)
					placed = append(placed, op)
				case 1: // remove a placed op
					prunePlaced()
					if len(placed) > 0 {
						i := rng.Intn(len(placed))
						g.RemoveOp(placed[i])
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
						g.MoveOp(op, v)
					}
				case 3: // grow a branch at a random leaf
					n := randNode()
					if n.BranchCount() >= 3 {
						continue // keep trees small
					}
					ls := n.Leaves()
					leaf := ls[rng.Intn(len(ls))]
					cj := &ir.Op{ID: al.OpID(), Origin: origin, Iter: rng.Intn(3), Kind: ir.CJ,
						Src: [2]ir.Reg{randReg()}, Imm: 1, BImm: true, Rel: ir.Lt}
					origin++
					var tSucc, fSucc *Node
					ns := liveNodes()
					if rng.Intn(2) == 0 {
						tSucc = ns[rng.Intn(len(ns))]
					}
					if rng.Intn(2) == 0 {
						fSucc = ns[rng.Intn(len(ns))]
					}
					g.RetargetLeaf(leaf, nil)
					g.InsertBranchAtLeaf(leaf, cj, tSucc, fSucc)
				case 4: // retarget a random leaf (nil allowed)
					n := randNode()
					ls := n.Leaves()
					leaf := ls[rng.Intn(len(ls))]
					var succ *Node
					if rng.Intn(3) > 0 {
						succ = randNode()
					}
					g.RetargetLeaf(leaf, succ)
				case 5: // insert an empty node before a random one
					g.InsertBefore(randNode())
				case 6: // splice an empty node out (no-op unless empty)
					n := randNode()
					if n == g.Entry && n.FallThrough() == nil {
						continue // would leave the graph entry-less
					}
					g.SpliceOutEmpty(n)
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
					g.ReplaceUse(op, uses[rng.Intn(len(uses))], randReg())
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
					g.RetargetDef(op, r)
				case 9: // split a branch-rooted unreferenced node (move-cj shape)
					var n *Node
					for _, cand := range liveNodes() {
						if cand != g.Entry && !cand.Root.IsLeaf() && g.PredEdgeCount(cand) == 0 {
							n = cand
							break
						}
					}
					if n == nil {
						continue
					}
					cj, rootOps, tSub, fSub := g.DetachBranchRoot(n)
					tn := g.NewNode()
					g.AdoptSubtree(tn, tSub)
					for _, o := range rootOps {
						g.AddOp(o, tSub)
					}
					fn := g.NewNode()
					fn.Drain = true
					g.AdoptSubtree(fn, fSub)
					for _, o := range rootOps {
						c := o.Clone(al.OpID(), true)
						g.AddOp(c, fSub)
						placed = append(placed, c)
					}
					// Re-home the detached branch at some leaf elsewhere.
					home := randNode()
					for home == tn || home == fn {
						home = randNode()
					}
					ls := home.Leaves()
					leaf := ls[rng.Intn(len(ls))]
					g.RetargetLeaf(leaf, nil)
					g.InsertBranchAtLeaf(leaf, cj, tn, fn)
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

			// Spot-check the summary query API against op-by-op walks,
			// for every pool register (Validate checks the internal
			// summary; this checks the exported answers against the
			// vertex's op list): the masks may over-approximate but
			// never miss, and DefSiteHere names exactly the defining op.
			for _, n := range liveNodes() {
				n.Walk(func(v *Vertex) {
					defsHere := map[ir.Reg]*ir.Op{}
					usesHere := map[ir.Reg]bool{}
					var buf [3]ir.Reg
					for _, op := range v.Ops {
						if d := op.Def(); d != ir.NoReg {
							defsHere[d] = op
						}
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
						if defsHere[r] != nil && !v.MayDefine(r) {
							t.Fatalf("n%d: MayDefine(r%d) misses a definition", n.ID, r)
						}
						if usesHere[r] && !v.MayRead(r) {
							t.Fatalf("n%d: MayRead(r%d) misses a read", n.ID, r)
						}
						p, pos := v.DefSiteHere(r)
						if p != defsHere[r] || p != nil && v.Ops[pos] != p {
							t.Fatalf("n%d: DefSiteHere(r%d) = %v at %d, walk says %v", n.ID, r, p, pos, defsHere[r])
						}
						if v.MayDefine(r) && p == nil || v.MayRead(r) && !usesHere[r] {
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

// TestEdgeSetOverflow exercises the inline-array overflow path of the
// compact predecessor sets: a node with more distinct predecessors than
// the inline capacity, plus parallel edges, must answer
// Preds/PredEdgeCount/SinglePred exactly and survive edge removal back
// below the inline boundary. The hub's four leaves into four distinct
// successors check Successors and NonDrainSucc on a wide tree.
func TestEdgeSetOverflow(t *testing.T) {
	al := ir.NewAlloc()
	g := New(al)
	hub := g.NewNode()
	g.Entry = hub

	// Give the hub three branches -> four leaves, each pointing at its
	// own successor: 4 distinct successors (> inlineEdges).
	var succs []*Node
	for i := 0; i < 4; i++ {
		succs = append(succs, g.NewNode())
	}
	mkCJ := func() *ir.Op {
		return &ir.Op{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{al.Reg("")}, Imm: 1, BImm: true, Rel: ir.Lt}
	}
	t0, f0 := g.InsertBranchAtLeaf(hub.Root, mkCJ(), nil, nil)
	t1, f1 := g.InsertBranchAtLeaf(t0, mkCJ(), nil, nil)
	t2, f2 := g.InsertBranchAtLeaf(f0, mkCJ(), nil, nil)
	for i, leaf := range []*Vertex{t1, f1, t2, f2} {
		g.RetargetLeaf(leaf, succs[i])
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := hub.Successors(); len(got) != 4 {
		t.Fatalf("hub successors = %d, want 4", len(got))
	}
	for _, s := range succs {
		if g.SinglePred(s) != hub {
			t.Fatalf("succ n%d SinglePred != hub", s.ID)
		}
	}

	// Now give one successor four distinct predecessors (the hub plus
	// three fresh single-leaf nodes) and a parallel edge.
	target := succs[0]
	var extra []*Node
	for i := 0; i < 3; i++ {
		n := g.NewNode()
		extra = append(extra, n)
		g.RetargetLeaf(n.Root, target)
	}
	g.RetargetLeaf(f1, target) // second hub edge: parallel to t1's
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.PredEdgeCount(target); got != 5 {
		t.Fatalf("PredEdgeCount = %d, want 5", got)
	}
	if got := len(g.Preds(target)); got != 4 {
		t.Fatalf("distinct preds = %d, want 4", got)
	}
	if g.SinglePred(target) != nil {
		t.Fatal("SinglePred must be nil with 5 in-edges")
	}

	// Unwind the overflow: drop edges until one remains.
	g.RetargetLeaf(f1, nil)
	for _, n := range extra {
		g.RetargetLeaf(n.Root, nil)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.SinglePred(target) != hub {
		t.Fatal("SinglePred must return the hub again")
	}
	if got := hub.NonDrainSucc(); got != nil {
		t.Fatalf("NonDrainSucc over 4 successors = n%d, want nil (ambiguous)", got.ID)
	}
}

// TestCloneVisitsSuccessorsInLeafOrder pins the order successors come
// in. They are read off the leaves, in left-first preorder with each
// successor at its first leaf, so a graph and its Clone visit
// corresponding successors alike even after random edge mutations have
// made the order edges were added in differ from the leaf order.
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
		randSucc := func() *Node {
			if rng.Intn(5) == 0 {
				return nil
			}
			return ns[rng.Intn(len(ns))]
		}
		for step := 0; step < 60; step++ {
			n := ns[rng.Intn(len(ns))]
			ls := n.Leaves()
			leaf := ls[rng.Intn(len(ls))]
			if rng.Intn(3) == 0 && n.BranchCount() < 3 {
				cj := &ir.Op{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{al.Reg("")}, Imm: 1, BImm: true, Rel: ir.Lt}
				g.RetargetLeaf(leaf, nil)
				g.InsertBranchAtLeaf(leaf, cj, randSucc(), randSucc())
			} else {
				g.RetargetLeaf(leaf, randSucc())
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ng, _ := g.Clone(al.Clone())
		byID := map[int]*Node{}
		for n := range ng.nodes {
			byID[n.ID] = n
		}
		for _, n := range ns {
			// The expected order, from the leaves directly.
			var want []int
			seen := map[*Node]bool{}
			for _, l := range n.Leaves() {
				if l.Succ != nil && !seen[l.Succ] {
					seen[l.Succ] = true
					want = append(want, l.Succ.ID)
				}
			}
			for _, m := range []*Node{n, byID[n.ID]} {
				var got []int
				m.VisitSuccessors(func(s *Node) bool {
					got = append(got, s.ID)
					return true
				})
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d: n%d visits successors %v, leaf order is %v", seed, m.ID, got, want)
				}
			}
		}
	}

	// Two leaves into one successor: it is visited once, so it is still
	// the unique non-drain successor, next to a drain exit.
	al := ir.NewAlloc()
	g := New(al)
	hub, s, d := g.NewNode(), g.NewNode(), g.NewNode()
	d.Drain = true
	g.Entry = hub
	mkCJ := func() *ir.Op {
		return &ir.Op{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{al.Reg("")}, Imm: 1, BImm: true, Rel: ir.Lt}
	}
	tl, fl := g.InsertBranchAtLeaf(hub.Root, mkCJ(), s, nil)
	g.InsertBranchAtLeaf(fl, mkCJ(), d, s)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := hub.Successors(); len(got) != 2 || got[0] != s || got[1] != d {
		t.Fatalf("hub successors = %v, want [n%d n%d]", got, s.ID, d.ID)
	}
	if got := hub.NonDrainSucc(); got != s {
		t.Fatalf("NonDrainSucc = %v, want n%d", got, s.ID)
	}
	g.RetargetLeaf(tl, nil)
	if got := hub.Successors(); len(got) != 2 || got[0] != d || got[1] != s {
		t.Fatalf("hub successors after retarget = %v, want [n%d n%d]", got, d.ID, s.ID)
	}
	// The same with one branch over two leaves, a shape read directly.
	one := g.NewNode()
	g.InsertBranchAtLeaf(one.Root, mkCJ(), s, s)
	if got := one.Successors(); len(got) != 1 || got[0] != s || one.NonDrainSucc() != s {
		t.Fatalf("one-branch successors = %v, NonDrainSucc = %v, want n%d once", got, one.NonDrainSucc(), s.ID)
	}
}

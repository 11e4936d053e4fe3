package graph

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// buildChain makes a graph  n1(op a) -> n2(op b) -> n3(cj) -> n4(op c) -> exit
// with the cj's false side going to an empty drain node.
func buildChain(t *testing.T) (*Graph, []*Node, []*ir.Op) {
	t.Helper()
	al := ir.NewAlloc()
	g := New(al)
	ra, rb, rc := al.Reg(), al.Reg(), al.Reg()
	a := &ir.Op{ID: al.OpID(), Origin: 0, Iter: 0, Kind: ir.Const, Dst: ra, Imm: 1}
	b := &ir.Op{ID: al.OpID(), Origin: 1, Iter: 0, Kind: ir.Add, Dst: rb, Src: [2]ir.Reg{ra}, Imm: 1, BImm: true}
	cj := &ir.Op{ID: al.OpID(), Origin: 2, Iter: 0, Kind: ir.CJ, Src: [2]ir.Reg{rb}, Imm: 10, BImm: true, Rel: ir.Lt}
	c := &ir.Op{ID: al.OpID(), Origin: 3, Iter: 0, Kind: ir.Add, Dst: rc, Src: [2]ir.Reg{rb}, Imm: 2, BImm: true}

	drain := g.NewNode()
	drain.Drain = true

	n1 := AppendOp(g, nil, a)
	n2 := AppendOp(g, n1, b)
	n3 := AppendBranch(g, n2, cj, drain)
	n4 := AppendOp(g, n3, c)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after build: %v", err)
	}
	return g, []*Node{n1, n2, n3, n4, drain}, []*ir.Op{a, b, cj, c}
}

// leaves returns n's leaf vertices in left-first preorder.
func leaves(n *Node) []*Vertex {
	var ls []*Vertex
	n.VisitLeaves(func(v *Vertex) bool {
		ls = append(ls, v)
		return true
	})
	return ls
}

// successors returns n's successors in VisitSuccessors order.
func successors(n *Node) []*Node {
	var ss []*Node
	n.VisitSuccessors(func(s *Node) bool {
		ss = append(ss, s)
		return true
	})
	return ss
}

func TestChainBuildAndValidate(t *testing.T) {
	g, ns, ops := buildChain(t)
	if g.Entry != ns[0] {
		t.Fatal("entry wrong")
	}
	if g.NodeOf(ops[0]) != ns[0] || g.NodeOf(ops[2]) != ns[2] {
		t.Fatal("op locations wrong")
	}
	if ns[2].BranchCount() != 1 || ns[2].OpCount() != 0 {
		t.Fatal("branch node counts wrong")
	}
	if p := ns[1].Pred(); p != ns[0] || ns[1].In() != ns[0].Root {
		t.Fatalf("Pred = %v", p)
	}
	succs := successors(ns[2])
	if len(succs) != 2 {
		t.Fatalf("branch successors = %d, want 2", len(succs))
	}
}

func TestOrder(t *testing.T) {
	g, ns, _ := buildChain(t)
	g.NewNode() // unreachable
	order := g.Order()
	if len(order) != len(ns) || order[0] != ns[0] {
		t.Fatalf("order has %d nodes from n%d, want the %d reachable ones from entry", len(order), order[0].ID, len(ns))
	}
	at := map[*Node]int{}
	for i, n := range order {
		at[n] = i
	}
	if at[ns[3]] <= at[ns[2]] {
		t.Fatal("topological order violated")
	}
}

func TestMainChainSkipsDrains(t *testing.T) {
	g, ns, _ := buildChain(t)
	chain := g.MainChain()
	want := []*Node{ns[0], ns[1], ns[2], ns[3]}
	if len(chain) != len(want) {
		t.Fatalf("MainChain len = %d, want %d", len(chain), len(want))
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("MainChain[%d] = n%d, want n%d", i, chain[i].ID, want[i].ID)
		}
	}
}

func TestMoveOpBetweenVertices(t *testing.T) {
	g, ns, ops := buildChain(t)
	// Move op c from n4 into n3's continue leaf.
	leaf := ContinueLeaf(ns[2])
	g.RemoveOp(ops[3])
	g.AddOp(ops[3], leaf)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after move: %v", err)
	}
	if g.NodeOf(ops[3]) != ns[2] {
		t.Fatal("op location not updated")
	}
	if ns[2].OpCount() != 1 {
		t.Fatal("op count wrong after move")
	}
	// n4 is now empty; splice it out.
	g.SpliceOutEmpty(ns[3])
	if g.Has(ns[3]) {
		t.Fatal("SpliceOutEmpty left the empty node in the graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after splice: %v", err)
	}
	if ContinueLeaf(ns[2]).Succ != nil {
		t.Fatal("splice should leave program exit")
	}
}

func TestHoistOp(t *testing.T) {
	g, ns, ops := buildChain(t)
	leaf := ContinueLeaf(ns[2])
	g.RemoveOp(ops[3])
	g.AddOp(ops[3], leaf)
	g.HoistOp(ops[3])
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after hoist: %v", err)
	}
	if got := g.Where(ops[3]); got != ns[2].Root {
		t.Fatal("hoist did not reach root vertex")
	}
}

func TestInsertBefore(t *testing.T) {
	g, ns, _ := buildChain(t)
	pre := g.InsertBefore(ns[0])
	if g.Entry != pre {
		t.Fatal("entry not updated")
	}
	if pre.Root.Succ != ns[0] {
		t.Fatal("prelude does not fall through to old entry")
	}
	if pre.Pos() >= ns[0].Pos() {
		t.Fatalf("prelude keyed at %v, not before the old entry's %v", pre.Pos(), ns[0].Pos())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	mid := g.InsertBefore(ns[1])
	if ns[1].Pred() != mid || mid.Pred() != ns[0] {
		t.Fatal("mid insertion edges wrong")
	}
	if !(ns[0].Pos() < mid.Pos() && mid.Pos() < ns[1].Pos()) {
		t.Fatalf("mid node keyed at %v, not strictly between %v and %v", mid.Pos(), ns[0].Pos(), ns[1].Pos())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesDoubleDef(t *testing.T) {
	g, ns, ops := buildChain(t)
	dup := &ir.Op{ID: g.Alloc.OpID(), Kind: ir.Const, Dst: ops[0].Dst, Imm: 9}
	g.AddOp(dup, ns[0].Root)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "defined twice") {
		t.Fatalf("Validate should catch double def, got %v", err)
	}
}

// TestValidateCensusCatchesOrphanedPlacement detaches a branch root
// whose subtree still holds a placed op and never adopts the subtree.
// The op's placement slot still points into the graph, but no node
// reaches it, so only the numPlaced census can notice; adopting the
// subtree makes the graph valid again.
func TestValidateCensusCatchesOrphanedPlacement(t *testing.T) {
	g, ns, _ := buildChain(t)
	n3 := ns[2]
	orphan := &ir.Op{ID: g.Alloc.OpID(), Kind: ir.Const, Dst: g.Alloc.Reg(), Imm: 5}
	g.AddOp(orphan, n3.Root.True)
	g.RetargetLeaf(ns[1].Root, nil) // DetachBranchRoot needs n3 predecessor-free
	_, _, trueSub, _ := g.DetachBranchRoot(n3)
	if g.Where(orphan) == nil {
		t.Fatal("scenario: the detached subtree's op should still be placed")
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "numPlaced") {
		t.Fatalf("Validate must reject an op placed in an unadopted subtree, got %v", err)
	}
	g.AdoptSubtree(g.NewNode(), trueSub)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after adoption: %v", err)
	}
}

// TestPlacementIsPerGraph: a clone's ops keep their source's IDs, so
// only the owning-graph check on the op's placement slot keeps one
// graph from resolving the other's ops. Each graph must see its own
// ops and neither sees the other's, even after the clone mutates.
func TestPlacementIsPerGraph(t *testing.T) {
	g, _, ops := buildChain(t)
	ng, byID := g.Clone(g.Alloc.Clone())
	for _, op := range ops {
		c := byID[op.ID]
		if c == nil || c.ID != op.ID {
			t.Fatalf("op %v: no same-ID clone", op)
		}
		if g.Where(op) == nil || ng.Where(c) == nil {
			t.Fatalf("op %v: a graph lost its own op", op)
		}
		if ng.Where(op) != nil || ng.NodeOf(op) != nil {
			t.Errorf("op %v: the clone resolves the source's op", op)
		}
		if g.Where(c) != nil || g.NodeOf(c) != nil {
			t.Errorf("op %v: the source resolves the clone's op", op)
		}
	}
	moved := byID[ops[1].ID]
	ng.RemoveOp(moved)
	if g.Where(ops[1]) == nil {
		t.Error("unplacing a clone op unplaced its source")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIterCountAndSchedCount(t *testing.T) {
	g, ns, ops := buildChain(t)
	if ns[0].IterCount(0) != 1 || ns[0].IterCount(1) != 0 {
		t.Fatal("IterCount wrong")
	}
	// Ops are frozen before placement: a frozen op of iteration 0 placed
	// beside ops[0] leaves the count alone.
	frozen := &ir.Op{ID: g.Alloc.OpID(), Origin: ops[0].Origin, Iter: 0, Kind: ir.Const, Dst: g.Alloc.Reg(), Imm: 1, Frozen: true}
	g.AddOp(frozen, ns[0].Root)
	if ns[0].IterCount(0) != 1 {
		t.Fatal("frozen ops must not count")
	}
	if ns[2].IterCount(0) != 1 { // the branch
		t.Fatal("branch must count as schedulable")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after placing a frozen op: %v", err)
	}
}

func TestRowString(t *testing.T) {
	g, ns, _ := buildChain(t)
	names := []string{"a", "b", "cj", "c"}
	row := g.RowString(ns[2], func(o int) string { return names[o] })
	if row != "cj0" {
		t.Fatalf("RowString = %q, want cj0", row)
	}
}

func TestNodeStringRendering(t *testing.T) {
	g, ns, _ := buildChain(t)
	s := g.NodeString(ns[2])
	if !strings.Contains(s, "cj") || !strings.Contains(s, "?") {
		t.Errorf("NodeString = %q", s)
	}
	full := g.String()
	if !strings.Contains(full, "-> exit") {
		t.Errorf("graph String missing exit:\n%s", full)
	}
}

// TestRetargetLeafMaintainsPreds: RetargetLeaf moves a leaf's edge and
// the incoming leaf of both ends with it. Pointing the tail at the drain,
// which the cj's false side already enters, is a second edge and panics.
func TestRetargetLeafMaintainsPreds(t *testing.T) {
	g, ns, _ := buildChain(t)
	leaf := ContinueLeaf(ns[3])
	x, y := g.NewNode(), g.NewNode()
	g.RetargetLeaf(leaf, x)
	g.RetargetLeaf(leaf, y)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if x.In() != nil || y.In() != leaf || y.Pred() != ns[3] {
		t.Fatalf("after retarget x->y: x.In = %v, y.In = %v, want nil and the tail's leaf", x.In(), y.In())
	}
	g.RetargetLeaf(leaf, nil)
	if y.In() != nil || leaf.Succ != nil {
		t.Fatal("retarget to exit left the edge into y")
	}
	if ns[4].Pred() != ns[2] {
		t.Fatalf("drain Pred = %v, want the cj node", ns[4].Pred())
	}
	mustPanic(t, "RetargetLeaf onto the drain", func() { g.RetargetLeaf(leaf, ns[4]) })
}

// TestDefSiteHereNoReg: stores and branches "define" NoReg, so an op
// scan that compared Def() alone would name the store; NoReg has no
// def site.
func TestDefSiteHereNoReg(t *testing.T) {
	al := ir.NewAlloc()
	g := New(al)
	n := g.NewNode()
	g.Entry = n
	st := &ir.Op{ID: al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{al.Reg()},
		Mem: ir.MemRef{Array: al.Array("A")}}
	g.AddOp(st, n.Root)
	cj := &ir.Op{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{al.Reg()}, Imm: 1, BImm: true, Rel: ir.Lt}
	g.InsertBranchAtLeaf(n.Root, cj, nil, nil)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Def() != ir.NoReg || cj.Def() != ir.NoReg {
		t.Fatal("store and branch must define NoReg for this test to mean anything")
	}
	if p, pos := n.Root.DefSiteHere(ir.NoReg); p != nil {
		t.Fatalf("DefSiteHere(NoReg) = %v at %d, want nil", p, pos)
	}
	if n.Root.MayDefine(ir.NoReg) {
		t.Fatal("MayDefine(NoReg) = true")
	}
}

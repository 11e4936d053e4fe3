package deps

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
)

// liveFixture: n1 -> branch(cj) ? n2(reads r2; writes r9) -> n3(reads r9)
//
//	: exit
func liveFixture(t *testing.T) (*graph.Graph, *ir.Alloc, []*graph.Node, []ir.Reg) {
	t.Helper()
	al := ir.NewAlloc()
	g := graph.New(al)
	r1, r2, r9 := al.Reg("r1"), al.Reg("r2"), al.Reg("r9")

	n1 := graph.AppendOp(g, nil, &ir.Op{ID: al.OpID(), Kind: ir.Const, Dst: r1, Imm: 1})
	cj := &ir.Op{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r1}, Imm: 10, BImm: true, Rel: ir.Lt}
	nbr := graph.AppendBranch(g, n1, cj, nil)
	n2 := graph.AppendOp(g, nbr, &ir.Op{ID: al.OpID(), Kind: ir.Add, Dst: r9, Src: [2]ir.Reg{r2}, Imm: 1, BImm: true})
	n3 := graph.AppendOp(g, n2, &ir.Op{ID: al.OpID(), Kind: ir.Mul, Dst: al.Reg("r4"), Src: [2]ir.Reg{r9, r9}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, al, []*graph.Node{n1, nbr, n2, n3}, []ir.Reg{r1, r2, r9}
}

func TestLiveAtEntry(t *testing.T) {
	g, _, ns, rs := liveFixture(t)
	r1, r2, r9 := rs[0], rs[1], rs[2]

	// r2 is read in n2: live at every entry from n1 down to n2.
	for _, n := range ns[:3] {
		if !LiveAtEntry(g, n, r2, nil) {
			t.Errorf("r2 should be live at n%d", n.ID)
		}
	}
	// r9 is written at n2's root before n3 reads it: dead at n1/n2
	// entry, live at n3.
	if LiveAtEntry(g, ns[0], r9, nil) {
		t.Error("r9 live at n1 despite kill at n2")
	}
	if !LiveAtEntry(g, ns[3], r9, nil) {
		t.Error("r9 dead at its reader")
	}
	// r1 is read by the branch.
	if !LiveAtEntry(g, ns[1], r1, nil) {
		t.Error("branch source not live")
	}
	// Exit-live registers are live along the exit path.
	exit := map[ir.Reg]bool{r2: true}
	if !LiveAtEntry(g, ns[3], r2, exit) {
		t.Error("exit-live register dead before program exit")
	}
	if LiveAtEntry(g, ns[3], r1, map[ir.Reg]bool{}) {
		t.Error("r1 has no reader below n3")
	}
}

func TestLiveOnSubtreeAndDefines(t *testing.T) {
	g, _, ns, rs := liveFixture(t)
	r2, r9 := rs[1], rs[2]
	nbr := ns[1]
	root := nbr.Root
	// The false side exits the program: with r2 exit-live it is live on
	// that subtree; r9 is not.
	exit := map[ir.Reg]bool{r2: true}
	if !LiveOnSubtree(g, root.False, r2, exit) {
		t.Error("r2 should be live on the exit subtree")
	}
	if LiveOnSubtree(g, root.False, r9, exit) {
		t.Error("r9 should be dead on the exit subtree")
	}
	// The true side reaches n2/n3: r2 live, r9 killed at n2 before use.
	if !LiveOnSubtree(g, root.True, r2, nil) {
		t.Error("r2 should be live via the continue subtree")
	}
	if LiveOnSubtree(g, root.True, r9, nil) {
		t.Error("r9 is killed at n2's root before any read")
	}

	// The kill that makes r9 dead sits at n2's root vertex; the branch
	// vertex's continue side defines nothing itself.
	if p, _ := ns[2].Root.DefSiteHere(r9); p == nil {
		t.Error("DefSiteHere misses n2's own definition of r9")
	}
	if p, _ := root.True.DefSiteHere(r9); p != nil {
		t.Errorf("DefSiteHere(r9) = %v on a vertex that defines nothing", p)
	}
}

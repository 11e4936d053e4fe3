package sim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/testutil"
)

func TestStraightLineExecution(t *testing.T) {
	testutil.LeakCheck(t)
	al := ir.NewAlloc()
	g := graph.New(al)
	r1, r2, r3 := al.Reg(), al.Reg(), al.Reg()
	arr := al.Array("X")

	n1 := graph.AppendOp(g, nil, &ir.Op{ID: al.OpID(), Kind: ir.Const, Dst: r1, Imm: 6})
	n2 := graph.AppendOp(g, n1, &ir.Op{ID: al.OpID(), Kind: ir.Mul, Dst: r2, Src: [2]ir.Reg{r1}, Imm: 7, BImm: true})
	n3 := graph.AppendOp(g, n2, &ir.Op{ID: al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r2}, Mem: ir.MemRef{Array: arr, Index: 3}})
	graph.AppendOp(g, n3, &ir.Op{ID: al.OpID(), Kind: ir.Load, Dst: r3, Mem: ir.MemRef{Array: arr, Index: 3}})

	res, err := Run(g, NewState(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 4 {
		t.Errorf("Cycles = %d, want 4", res.Cycles)
	}
	if got := res.State.Reg(r3); got != 42 {
		t.Errorf("r3 = %d, want 42", got)
	}
	if got := res.State.Mem[Key{arr, 3}]; got != 42 {
		t.Errorf("X[3] = %d, want 42", got)
	}
}

func TestParallelFetchSemantics(t *testing.T) {
	testutil.LeakCheck(t)
	// One instruction containing both "r2 = r1 + 1" and "r1 = 100":
	// the add must read the OLD r1 (operands fetch at entry).
	al := ir.NewAlloc()
	g := graph.New(al)
	r1, r2 := al.Reg(), al.Reg()
	n := g.NewNode()
	g.Entry = n
	g.AddOp(&ir.Op{ID: al.OpID(), Kind: ir.Add, Dst: r2, Src: [2]ir.Reg{r1}, Imm: 1, BImm: true}, n.Root)
	g.AddOp(&ir.Op{ID: al.OpID(), Kind: ir.Const, Dst: r1, Imm: 100}, n.Root)

	init := NewState()
	init.SetReg(r1, 5)
	res, err := Run(g, init, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.State.Reg(r2); got != 6 {
		t.Errorf("r2 = %d, want 6 (entry value of r1)", got)
	}
	if got := res.State.Reg(r1); got != 100 {
		t.Errorf("r1 = %d, want 100", got)
	}
}

func TestParallelStoreLoadSameCell(t *testing.T) {
	testutil.LeakCheck(t)
	// A load and a store of the same cell in one instruction: the load
	// reads the entry value of memory.
	al := ir.NewAlloc()
	g := graph.New(al)
	r1, r2 := al.Reg(), al.Reg()
	arr := al.Array("X")
	n := g.NewNode()
	g.Entry = n
	g.AddOp(&ir.Op{ID: al.OpID(), Kind: ir.Load, Dst: r2, Mem: ir.MemRef{Array: arr, Index: 0}}, n.Root)
	g.AddOp(&ir.Op{ID: al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r1}, Mem: ir.MemRef{Array: arr, Index: 0}}, n.Root)

	init := NewState()
	init.SetReg(r1, 9)
	init.SetMem(arr, 0, 4)
	res, err := Run(g, init, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.State.Reg(r2); got != 4 {
		t.Errorf("load got %d, want entry value 4", got)
	}
	if got := res.State.Mem[Key{arr, 0}]; got != 9 {
		t.Errorf("X[0] = %d, want 9", got)
	}
}

// branchGraph builds: n1 holds cj (r1 < 10), ops attached per-path:
// true side leads to a node storing 1, false side to a node storing 2.
func branchGraph(t *testing.T) (*graph.Graph, *ir.Alloc, ir.Reg, ir.Array) {
	t.Helper()
	al := ir.NewAlloc()
	g := graph.New(al)
	r1 := al.Reg()
	one, two := al.Reg(), al.Reg()
	arr := al.Array("OUT")

	tN := g.NewNode()
	g.AddOp(&ir.Op{ID: al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{one}, Mem: ir.MemRef{Array: arr, Index: 0}}, tN.Root)
	fN := g.NewNode()
	g.AddOp(&ir.Op{ID: al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{two}, Mem: ir.MemRef{Array: arr, Index: 0}}, fN.Root)

	br := g.NewNode()
	cj := &ir.Op{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r1}, Imm: 10, BImm: true, Rel: ir.Lt}
	g.InsertBranchAtLeaf(br.Root, cj, tN, fN)
	g.Entry = br
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Seed the constant registers via an init instruction.
	pre := g.InsertBefore(br)
	g.AddOp(&ir.Op{ID: al.OpID(), Kind: ir.Const, Dst: one, Imm: 1}, pre.Root)
	g.AddOp(&ir.Op{ID: al.OpID(), Kind: ir.Const, Dst: two, Imm: 2}, pre.Root)
	return g, al, r1, arr
}

func TestBranchSelection(t *testing.T) {
	testutil.LeakCheck(t)
	g, _, r1, arr := branchGraph(t)
	for _, c := range []struct {
		r1   int64
		want int64
	}{{5, 1}, {50, 2}} {
		init := NewState()
		init.SetReg(r1, c.r1)
		res, err := Run(g, init, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.State.Mem[Key{arr, 0}]; got != c.want {
			t.Errorf("r1=%d: OUT[0] = %d, want %d", c.r1, got, c.want)
		}
	}
}

func TestPathConditionalCommit(t *testing.T) {
	testutil.LeakCheck(t)
	// An op attached to the true-side leaf vertex must not commit when
	// the branch goes false (IBM VLIW: store only along selected path).
	al := ir.NewAlloc()
	g := graph.New(al)
	r1, r2 := al.Reg(), al.Reg()
	n := g.NewNode()
	cj := &ir.Op{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r1}, Imm: 0, BImm: true, Rel: ir.Gt}
	tLeaf, _ := g.InsertBranchAtLeaf(n.Root, cj, nil, nil)
	g.AddOp(&ir.Op{ID: al.OpID(), Kind: ir.Const, Dst: r2, Imm: 77}, tLeaf)
	g.Entry = n

	init := NewState()
	init.SetReg(r1, 1) // true: op commits
	res, _ := Run(g, init, 10)
	if res.State.Reg(r2) != 77 {
		t.Error("true-path op did not commit on true outcome")
	}
	init2 := NewState()
	init2.SetReg(r1, -1) // false: op must not commit
	res2, _ := Run(g, init2, 10)
	if res2.State.Reg(r2) != 0 {
		t.Error("true-path op committed on false outcome")
	}
}

func TestCycleLimit(t *testing.T) {
	testutil.LeakCheck(t)
	al := ir.NewAlloc()
	g := graph.New(al)
	g.Label = "selfloop/deadbeef"
	n := g.NewNode()
	g.Entry = n
	g.RetargetLeaf(n.Root, n) // self loop
	_, err := Run(g, NewState(), 50)
	if err == nil {
		t.Fatal("expected cycle-limit error")
	}
	// The budget error must be classifiable without string matching and
	// must attribute the runaway program by its label — fuzz-found
	// livelocks are triaged from CI logs alone.
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("error does not wrap ErrCycleBudget: %v", err)
	}
	for _, want := range []string{"selfloop/deadbeef", "exceeded", "50"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestCycleLimitUnlabeled(t *testing.T) {
	testutil.LeakCheck(t)
	al := ir.NewAlloc()
	g := graph.New(al)
	n := g.NewNode()
	g.Entry = n
	g.RetargetLeaf(n.Root, n)
	_, err := Run(g, NewState(), 10)
	if err == nil || !strings.Contains(err.Error(), "unlabeled graph") {
		t.Fatalf("want unlabeled-graph budget error, got %v", err)
	}
}

func TestEquivalence(t *testing.T) {
	testutil.LeakCheck(t)
	a, b := NewState(), NewState()
	a.SetMem(1, 0, 5)
	b.SetMem(1, 0, 5)
	b.SetMem(2, 3, 0) // explicit zero equals missing cell
	if err := EquivalentMem(a, b); err != nil {
		t.Errorf("EquivalentMem: %v", err)
	}
	a.SetMem(4, 1, 0) // on either side
	if err := EquivalentMem(a, b); err != nil {
		t.Errorf("EquivalentMem with an explicit zero in a: %v", err)
	}
	b.SetMem(1, 0, 6)
	if err := EquivalentMem(a, b); err == nil || err.Error() != "mem[1,0]: 5 vs 6" {
		t.Errorf("EquivalentMem = %v, want the differing cell", err)
	}
	// A nonzero cell only one side holds differs from the other's
	// missing zero, whichever side holds it.
	b.SetMem(1, 0, 5)
	b.SetMem(3, 7, 2)
	if err := EquivalentMem(a, b); err == nil || err.Error() != "mem[3,7]: 0 vs 2" {
		t.Errorf("EquivalentMem = %v, want the cell only b holds", err)
	}
	if err := EquivalentMem(b, a); err == nil || err.Error() != "mem[3,7]: 2 vs 0" {
		t.Errorf("EquivalentMem = %v, want the cell only a holds", err)
	}
	a2, b2 := NewState(), NewState()
	a2.SetReg(1, 3)
	if err := Equivalent(a2, b2, []ir.Reg{1}); err == nil {
		t.Error("Equivalent must catch register difference")
	}
	if err := Equivalent(a2, b2, []ir.Reg{2}); err != nil {
		t.Errorf("Equivalent over unobserved regs: %v", err)
	}
}

func TestStateCloneIsolation(t *testing.T) {
	testutil.LeakCheck(t)
	f := func(r uint8, v int64) bool {
		s := NewState()
		s.SetReg(ir.Reg(r)+1, v)
		c := s.Clone()
		c.SetReg(ir.Reg(r)+1, v+1)
		return s.Reg(ir.Reg(r)+1) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

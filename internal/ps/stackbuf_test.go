package ps

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
)

// The move machinery keeps three fixed-size stack buffers whose bounds
// are invariants, not guesses. These tests pin each one: within the
// documented bound the paths are allocation-free; beyond it (possible
// only in configurations the paper's machines never reach, e.g.
// unlimited branch slots) the code must fall back to correct heap
// growth rather than silently truncating.

// Every operation kind reads at most 2 registers (binary arithmetic
// and CJ: two sources; store: value + index register; load: index
// register; copy: one source). TryMoveOpUp's [3]ir.Reg use buffer
// therefore never grows; this test is the tripwire for anyone widening
// the IR.
func TestOpUsesBufferBound(t *testing.T) {
	al := ir.NewAlloc()
	r1, r2, r3 := al.Reg(), al.Reg(), al.Reg()
	arr := al.Array("A")
	worst := []*ir.Op{
		{ID: al.OpID(), Kind: ir.Add, Dst: r3, Src: [2]ir.Reg{r1, r2}},
		{ID: al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r1}, Mem: ir.MemRef{Array: arr, Index: 1, IndexReg: r2}},
		{ID: al.OpID(), Kind: ir.Load, Dst: r3, Mem: ir.MemRef{Array: arr, IndexReg: r1}},
		{ID: al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r1, r2}, Rel: ir.Lt},
		{ID: al.OpID(), Kind: ir.Copy, Dst: r3, Src: [2]ir.Reg{r1}},
	}
	var buf [3]ir.Reg
	for _, op := range worst {
		if n := len(op.Uses(buf[:0])); n > 2 {
			t.Errorf("%v reads %d registers; the [3]ir.Reg stack buffers assume at most 2", op, n)
		}
	}
}

// pathOps collects the root→leaf chain into an [8]*graph.Vertex stack
// buffer. Instruction trees are depth-bounded by the machine's branch
// slots under every paper configuration, but machine.WithBranchSlots
// accepts Unlimited — so a deeper tree must overflow into a correct
// (heap-growing) append, never drop vertices. This drives a 12-deep
// committed path and checks every op is visited in root→leaf order.
func TestPathOpsDeepTreeOverflowsCorrectly(t *testing.T) {
	f := newFixture(64)
	const depth = 12
	n := f.g.NewNode()
	f.g.Entry = n
	var want []*ir.Op
	leaf := n.Root
	for i := 0; i < depth; i++ {
		op := f.constOp(f.al.Reg(), int64(i))
		f.g.AddOp(op, leaf)
		want = append(want, op)
		cj := &ir.Op{ID: f.al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{f.al.Reg()}, Imm: 1, BImm: true, Rel: ir.Lt}
		// Each branch exits to a node of its own: a node has one
		// incoming edge.
		leaf, _ = f.g.InsertBranchAtLeaf(leaf, cj, nil, f.g.NewNode())
		want = append(want, cj)
	}
	last := f.constOp(f.al.Reg(), depth)
	f.g.AddOp(last, leaf)
	want = append(want, last)
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}

	var got []*ir.Op
	pathOps(leaf,
		func(op *ir.Op) bool { got = append(got, op); return true },
		func(cj *ir.Op) bool { got = append(got, cj); return true })
	if len(got) != len(want) {
		t.Fatalf("pathOps visited %d ops on a depth-%d path, want %d", len(got), depth, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pathOps order diverges at %d: got %v, want %v", i, got[i], want[i])
		}
	}

	// At or below the 8-vertex bound the walk must stay allocation-free
	// (the probe paths sit on this).
	shallow := f.g.NodeOf(want[0])
	shallowLeaf := shallow.Root
	for i := 0; i < 7 && !shallowLeaf.IsLeaf(); i++ {
		shallowLeaf = shallowLeaf.True
	}
	if a := testing.AllocsPerRun(100, func() {
		pathOps(shallowLeaf, func(*ir.Op) bool { return true }, nil)
	}); a != 0 {
		t.Errorf("pathOps allocates %v/op within the 8-vertex bound, want 0", a)
	}
}

// The rewrite buffer starts at [8]rewrite. Two registers can each be
// propagated through several copies along one committed path, so the
// bound is soft: a longer copy chain must overflow into heap growth
// with every rewrite retained, not drop substitutions. This drives one
// use through a 9-copy chain and checks all 9 substitutions arrive in
// order.
func TestRewriteBufferOverflowsCorrectly(t *testing.T) {
	f := newFixture(64)
	const chain = 9
	regs := make([]ir.Reg, chain+1)
	for i := range regs {
		regs[i] = f.al.Reg()
	}
	// Root vertex holds, in scan order, copies r9<-r8, r8<-r7, ... r1<-r0.
	var n *graph.Node
	for i := chain; i >= 1; i-- {
		cp := &ir.Op{ID: f.al.OpID(), Kind: ir.Copy, Dst: regs[i], Src: [2]ir.Reg{regs[i-1]}}
		if n == nil {
			n = graph.AppendOp(f.g, nil, cp)
		} else {
			f.g.AddOp(cp, n.Root)
		}
	}
	mover := f.addI(f.al.Reg(), regs[chain], 1)
	graph.AppendOp(f.g, n, mover)
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}

	var useBuf [3]ir.Reg
	uses := mover.Uses(useBuf[:0])
	var rwBuf [8]rewrite
	block, uses, rewrites := scanCommittedPath(n.Root, mover, nil, uses, rwBuf[:0])
	if block.Kind != BlockNone {
		t.Fatalf("copy chain blocked the scan: %v", block.Kind)
	}
	if len(rewrites) != chain {
		t.Fatalf("got %d rewrites through a %d-copy chain, want %d", len(rewrites), chain, chain)
	}
	for i, rw := range rewrites {
		if want := regs[chain-i]; rw.from != want || rw.to != regs[chain-i-1] {
			t.Fatalf("rewrite %d = {%d -> %d}, want {%d -> %d}", i, rw.from, rw.to, want, regs[chain-i-1])
		}
	}
	if uses[0] != regs[0] {
		t.Fatalf("use resolved to r%d, want the chain head r%d", uses[0], regs[0])
	}
}

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

// scanCommittedPath collects the root→leaf chain into an
// [8]*graph.Vertex stack buffer. Instruction trees are depth-bounded
// by the machine's branch slots under every paper configuration, but
// machine.WithBranchSlots accepts Unlimited — so a deeper tree must
// overflow into a correct (heap-growing) append, never drop vertices.
// This drives a 12-deep committed path: a mover reading the root op's
// and the leaf op's results must be blocked by the root op, the first
// in root→leaf order, and one reading only the leaf op's result by the
// leaf op.
func TestScanCommittedPathDeepTreeOverflowsCorrectly(t *testing.T) {
	f := newFixture(64)
	const depth = 12
	n := f.g.NewNode()
	f.g.Entry = n
	leaf := n.Root
	rootOp := f.constOp(f.al.Reg(), 0)
	for i := 0; i < depth; i++ {
		op := rootOp
		if i > 0 {
			op = f.constOp(f.al.Reg(), int64(i))
		}
		f.g.AddOp(op, leaf)
		cj := &ir.Op{ID: f.al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{f.al.Reg()}, Imm: 1, BImm: true, Rel: ir.Lt}
		// Each branch exits to a node of its own: a node has one
		// incoming edge.
		leaf, _ = f.g.InsertBranchAtLeaf(leaf, cj, nil, f.g.NewNode())
	}
	leafOp := f.constOp(f.al.Reg(), depth)
	f.g.AddOp(leafOp, leaf)
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}

	both := &ir.Op{ID: f.al.OpID(), Kind: ir.Add, Dst: f.al.Reg(), Src: [2]ir.Reg{rootOp.Dst, leafOp.Dst}}
	leafOnly := f.addI(f.al.Reg(), leafOp.Dst, 1)
	for _, tc := range []struct {
		name   string
		mover  *ir.Op
		wantBy *ir.Op
	}{{"root and leaf reader", both, rootOp}, {"leaf reader", leafOnly, leafOp}} {
		var useBuf [3]ir.Reg
		blk, _, _ := scanCommittedPath(leaf, tc.mover, nil, tc.mover.Uses(useBuf[:0]), nil)
		if blk.Kind != BlockDep || blk.By != tc.wantBy {
			t.Errorf("%s on a depth-%d path: %v block by %v, want a dep block by %v", tc.name, depth, blk.Kind, blk.By, tc.wantBy)
		}
	}

	// At or below the 8-vertex bound the scan must stay allocation-free
	// (the CrossCheck reference runs next to every probe).
	shallowLeaf := n.Root
	for i := 0; i < 7 && !shallowLeaf.IsLeaf(); i++ {
		shallowLeaf = shallowLeaf.True
	}
	if a := testing.AllocsPerRun(100, func() {
		var useBuf [3]ir.Reg
		scanCommittedPath(shallowLeaf, leafOnly, nil, leafOnly.Uses(useBuf[:0]), nil)
	}); a != 0 {
		t.Errorf("scanCommittedPath allocates %v/op within the 8-vertex bound, want 0", a)
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

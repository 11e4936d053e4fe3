package ps

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sim"
)

// fixture bundles a test graph with its allocator and context.
type fixture struct {
	al *ir.Alloc
	g  *graph.Graph
	c  *Ctx
}

func newFixture(fus int) *fixture {
	al := ir.NewAlloc()
	g := graph.New(al)
	return &fixture{al: al, g: g, c: NewCtx(g, machine.New(fus), nil)}
}

func (f *fixture) constOp(dst ir.Reg, v int64) *ir.Op {
	return &ir.Op{ID: f.al.OpID(), Kind: ir.Const, Dst: dst, Imm: v}
}

func (f *fixture) addI(dst, src ir.Reg, v int64) *ir.Op {
	return &ir.Op{ID: f.al.OpID(), Kind: ir.Add, Dst: dst, Src: [2]ir.Reg{src}, Imm: v, BImm: true}
}

// check validates the graph and compares simulated execution against a
// reference result for the given initial states.
func (f *fixture) check(t *testing.T, ref map[string]*sim.Result, inits map[string]*sim.State, regs []ir.Reg) {
	t.Helper()
	if err := f.g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for name, init := range inits {
		res, err := sim.Run(f.g, init, 10000)
		if err != nil {
			t.Fatalf("%s: sim: %v", name, err)
		}
		if err := sim.Equivalent(ref[name].State, res.State, regs); err != nil {
			t.Fatalf("%s: semantics changed: %v", name, err)
		}
	}
}

func snapshot(t *testing.T, g *graph.Graph, inits map[string]*sim.State) map[string]*sim.Result {
	t.Helper()
	out := map[string]*sim.Result{}
	for name, init := range inits {
		res, err := sim.Run(g, init, 10000)
		if err != nil {
			t.Fatalf("%s: reference sim: %v", name, err)
		}
		out[name] = res
	}
	return out
}

func TestMoveOpUpAndSplice(t *testing.T) {
	f := newFixture(2)
	r1, r2, r3 := f.al.Reg("r1"), f.al.Reg("r2"), f.al.Reg("r3")
	a := f.constOp(r1, 1)
	b := f.addI(r2, r1, 1)
	c := f.constOp(r3, 7)
	n1 := graph.AppendOp(f.g, nil, a)
	n2 := graph.AppendOp(f.g, n1, b)
	n3 := graph.AppendOp(f.g, n2, c)

	inits := map[string]*sim.State{"zero": sim.NewState()}
	ref := snapshot(t, f.g, inits)

	if blk := f.c.StepUp(c); blk.Kind != BlockNone {
		t.Fatalf("move c into n2: %v", blk.Kind)
	}
	if f.g.NodeOf(c) != n2 {
		t.Fatal("c not in n2")
	}
	if f.g.Has(n3) {
		t.Fatal("emptied node not spliced")
	}
	f.check(t, ref, inits, []ir.Reg{r1, r2, r3})

	// c can go one more step: n1 has one op, capacity 2.
	if blk := f.c.StepUp(c); blk.Kind != BlockNone {
		t.Fatalf("move c into n1: %v", blk.Kind)
	}
	if f.g.NodeOf(c) != n1 {
		t.Fatal("c not in n1")
	}
	f.check(t, ref, inits, []ir.Reg{r1, r2, r3})

	// b is truly dependent on a: blocked, with a identified.
	blk := f.c.StepUp(b)
	if blk.Kind != BlockDep || blk.By != a {
		t.Fatalf("b move: kind=%v by=%v, want dep on a", blk.Kind, blk.By)
	}

	// a is at the entry: structural block.
	if blk := f.c.StepUp(a); blk.Kind != BlockStructure {
		t.Fatalf("a move: %v, want structure", blk.Kind)
	}
	// Only n3 emptied (n2 still holds b after c left).
	if f.c.Moves != 2 || f.c.Splices != 1 {
		t.Fatalf("stats: moves=%d splices=%d", f.c.Moves, f.c.Splices)
	}
}

func TestMoveOpResourceBlock(t *testing.T) {
	f := newFixture(1)
	r1, r2, r3 := f.al.Reg("r1"), f.al.Reg("r2"), f.al.Reg("r3")
	n1 := graph.AppendOp(f.g, nil, f.constOp(r1, 1))
	n2 := graph.AppendOp(f.g, n1, f.constOp(r2, 2))
	c := f.constOp(r3, 3)
	graph.AppendOp(f.g, n2, c)

	if blk := f.c.StepUp(c); blk.Kind != BlockResource {
		t.Fatalf("expected resource block, got %v", blk.Kind)
	}
	// CanStepUp agrees and does not mutate.
	v := f.g.Version()
	if blk := f.c.CanStepUp(c, nil); blk.Kind != BlockResource {
		t.Fatalf("CanStepUp: %v", blk.Kind)
	}
	if f.g.Version() != v {
		t.Fatal("CanStepUp mutated the graph")
	}
}

func TestMoveOpCopyPropagation(t *testing.T) {
	f := newFixture(4)
	r1, r2, r4 := f.al.Reg("r1"), f.al.Reg("r2"), f.al.Reg("r4")
	a := f.constOp(r1, 5)
	cp := &ir.Op{ID: f.al.OpID(), Kind: ir.Copy, Dst: r2, Src: [2]ir.Reg{r1}}
	use := f.addI(r4, r2, 1)
	n1 := graph.AppendOp(f.g, nil, a)
	n2 := graph.AppendOp(f.g, n1, cp)
	graph.AppendOp(f.g, n2, use)

	inits := map[string]*sim.State{"zero": sim.NewState()}
	ref := snapshot(t, f.g, inits)

	// use depends on the copy: the move must propagate r2 -> r1.
	if blk := f.c.StepUp(use); blk.Kind != BlockNone {
		t.Fatalf("copy-prop move failed: %v", blk.Kind)
	}
	if use.Src[0] != r1 {
		t.Fatalf("use reads r%d, want r%d after propagation", use.Src[0], r1)
	}
	f.check(t, ref, inits, []ir.Reg{r1, r2, r4})

	// Next step hits the true producer.
	if blk := f.c.StepUp(use); blk.Kind != BlockDep || blk.By != a {
		t.Fatalf("expected dep on a, got %v", blk.Kind)
	}
}

func TestMoveOpMemoryDeps(t *testing.T) {
	f := newFixture(4)
	r1, r2 := f.al.Reg("r1"), f.al.Reg("r2")
	arr := f.al.Array("X")
	st := &ir.Op{ID: f.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r1}, Mem: ir.MemRef{Array: arr, Index: 0}}
	ld := &ir.Op{ID: f.al.OpID(), Kind: ir.Load, Dst: r2, Mem: ir.MemRef{Array: arr, Index: 0}}
	n1 := graph.AppendOp(f.g, nil, st)
	graph.AppendOp(f.g, n1, ld)

	// Load may not pass the aliasing store.
	if blk := f.c.StepUp(ld); blk.Kind != BlockDep || blk.By != st {
		t.Fatalf("load past store: %v", blk.Kind)
	}

	// A load from a different cell moves freely.
	f2 := newFixture(4)
	r1b, r2b := f2.al.Reg("r1"), f2.al.Reg("r2")
	arrb := f2.al.Array("X")
	stb := &ir.Op{ID: f2.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r1b}, Mem: ir.MemRef{Array: arrb, Index: 0}}
	ldb := &ir.Op{ID: f2.al.OpID(), Kind: ir.Load, Dst: r2b, Mem: ir.MemRef{Array: arrb, Index: 1}}
	m1 := graph.AppendOp(f2.g, nil, stb)
	graph.AppendOp(f2.g, m1, ldb)
	if blk := f2.c.StepUp(ldb); blk.Kind != BlockNone {
		t.Fatalf("independent load blocked: %v", blk.Kind)
	}

	// Store may not join a path holding an aliasing store.
	f3 := newFixture(4)
	r := f3.al.Reg("r")
	arrc := f3.al.Array("X")
	stc1 := &ir.Op{ID: f3.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r}, Mem: ir.MemRef{Array: arrc, Index: 2}}
	stc2 := &ir.Op{ID: f3.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r}, Mem: ir.MemRef{Array: arrc, Index: 2}}
	k1 := graph.AppendOp(f3.g, nil, stc1)
	graph.AppendOp(f3.g, k1, stc2)
	if blk := f3.c.StepUp(stc2); blk.Kind != BlockDep {
		t.Fatalf("store past aliasing store: %v", blk.Kind)
	}
}

func TestMoveOpRenamed(t *testing.T) {
	f := newFixture(4)
	r1, r2 := f.al.Reg("r1"), f.al.Reg("r2")
	a := f.constOp(r1, 1)
	redef := f.constOp(r1, 2) // output dependence on a
	use := f.addI(r2, r1, 10)
	n1 := graph.AppendOp(f.g, nil, a)
	n2 := graph.AppendOp(f.g, n1, redef)
	graph.AppendOp(f.g, n2, use)

	inits := map[string]*sim.State{"zero": sim.NewState()}
	ref := snapshot(t, f.g, inits)

	// Plain move fails on the output dependence.
	if blk := f.c.TryMoveOpUp(redef, true, nil); blk.Kind != BlockDep {
		t.Fatalf("expected output-dep block, got %v", blk.Kind)
	}
	// Renamed move succeeds and leaves a compensation copy behind.
	if blk := f.c.TryMoveOpUpRenamed(redef); blk.Kind != BlockNone {
		t.Fatalf("renamed move failed: %v", blk.Kind)
	}
	if f.c.Renames != 1 {
		t.Fatalf("renames = %d", f.c.Renames)
	}
	if f.g.NodeOf(redef) != n1 {
		t.Fatal("renamed op did not move")
	}
	f.check(t, ref, inits, []ir.Reg{r1, r2})
}

func TestHoistLegality(t *testing.T) {
	f := newFixture(8)
	f.c.ExitLive = map[ir.Reg]bool{}
	r1, r2, r3 := f.al.Reg("r1"), f.al.Reg("r2"), f.al.Reg("r3")
	arr := f.al.Array("X")

	// n1 -> br(cj r1<10; true -> n2, false -> exitNode)
	exitOp := f.addI(r3, r1, 0)
	exitNode := graph.AppendOp(f.g, nil, exitOp) // temporarily entry
	f.g.Entry = nil                              // rebuild entry properly
	// Rebuild: we cannot unset entry this way; start over cleanly.
	f = newFixture(8)
	r1, r2, r3 = f.al.Reg("r1"), f.al.Reg("r2"), f.al.Reg("r3")
	arr = f.al.Array("X")

	exitNode = f.g.NewNode()
	exitOp = f.addI(r3, r2, 0) // exit path READS r2
	f.g.AddOp(exitOp, exitNode.Root)

	a := f.constOp(r1, 1)
	n1 := graph.AppendOp(f.g, nil, a)
	cj := &ir.Op{ID: f.al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r1}, Imm: 10, BImm: true, Rel: ir.Lt}
	nbr := graph.AppendBranch(f.g, n1, cj, exitNode)
	clobber := f.constOp(r2, 99)
	n3 := graph.AppendOp(f.g, nbr, clobber)
	st := &ir.Op{ID: f.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r1}, Mem: ir.MemRef{Array: arr, Index: 0}}
	graph.AppendOp(f.g, n3, st)
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}

	// Move clobber into the branch node's continue leaf: exact, legal.
	if blk := f.c.StepUp(clobber); blk.Kind != BlockNone {
		t.Fatalf("move into continue leaf: %v", blk.Kind)
	}
	if f.g.NodeOf(clobber) != nbr {
		t.Fatal("clobber not in branch node")
	}
	// Hoisting it above the cj would clobber r2, which the exit path
	// reads: write-live block.
	if blk := f.c.StepUp(clobber); blk.Kind != BlockDep {
		t.Fatalf("write-live hoist: %v", blk.Kind)
	}

	// The store reaches the continue leaf but never hoists.
	if blk := f.c.StepUp(st); blk.Kind != BlockNone {
		t.Fatalf("store into continue leaf: %v", blk.Kind)
	}
	if blk := f.c.StepUp(st); blk.Kind != BlockDep || blk.By != cj {
		t.Fatalf("store hoist: kind=%v by=%v, want dep on cj", blk.Kind, blk.By)
	}
}

func TestHoistOKAndSemantics(t *testing.T) {
	f := newFixture(8)
	r1, r2 := f.al.Reg("r1"), f.al.Reg("r2")
	arr := f.al.Array("X")

	exitNode := f.g.NewNode()
	f.g.AddOp(&ir.Op{ID: f.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r1}, Mem: ir.MemRef{Array: arr, Index: 1}}, exitNode.Root)

	n1 := graph.AppendOp(f.g, nil, f.constOp(r1, 1))
	cj := &ir.Op{ID: f.al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r2}, Imm: 10, BImm: true, Rel: ir.Lt}
	nbr := graph.AppendBranch(f.g, n1, cj, exitNode)
	spec := f.addI(r1, r2, 5) // r1 dead on exit path? exit STORES r1 -> live!
	n3 := graph.AppendOp(f.g, nbr, spec)
	st2 := &ir.Op{ID: f.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r1}, Mem: ir.MemRef{Array: arr, Index: 0}}
	graph.AppendOp(f.g, n3, st2)

	inits := map[string]*sim.State{
		"cont": sim.NewState(),
		"exit": func() *sim.State { s := sim.NewState(); s.SetReg(r2, 50); return s }(),
	}
	ref := snapshot(t, f.g, inits)

	if blk := f.c.StepUp(spec); blk.Kind != BlockNone {
		t.Fatalf("move spec into continue leaf: %v", blk.Kind)
	}
	// r1 is read by the exit-path store: hoist must be blocked.
	if blk := f.c.StepUp(spec); blk.Kind != BlockDep {
		t.Fatalf("hoist of live-on-exit def: %v", blk.Kind)
	}
	f.check(t, ref, inits, []ir.Reg{r1})

	// Retarget the op to a fresh register (dead on exit): hoist now legal.
	f2 := newFixture(8)
	r1b, r2b, r9 := f2.al.Reg("r1"), f2.al.Reg("r2"), f2.al.Reg("r9")
	arrb := f2.al.Array("X")
	exitNodeB := f2.g.NewNode()
	f2.g.AddOp(&ir.Op{ID: f2.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r1b}, Mem: ir.MemRef{Array: arrb, Index: 1}}, exitNodeB.Root)
	m1 := graph.AppendOp(f2.g, nil, f2.constOp(r1b, 1))
	cjb := &ir.Op{ID: f2.al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r2b}, Imm: 10, BImm: true, Rel: ir.Lt}
	mbr := graph.AppendBranch(f2.g, m1, cjb, exitNodeB)
	specb := f2.addI(r9, r2b, 5)
	m3 := graph.AppendOp(f2.g, mbr, specb)
	stb := &ir.Op{ID: f2.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r9}, Mem: ir.MemRef{Array: arrb, Index: 0}}
	graph.AppendOp(f2.g, m3, stb)

	initsb := map[string]*sim.State{
		"cont": sim.NewState(),
		"exit": func() *sim.State { s := sim.NewState(); s.SetReg(r2b, 50); return s }(),
	}
	refb := snapshot(t, f2.g, initsb)
	if blk := f2.c.StepUp(specb); blk.Kind != BlockNone {
		t.Fatalf("move: %v", blk.Kind)
	}
	if blk := f2.c.StepUp(specb); blk.Kind != BlockNone {
		t.Fatalf("hoist: %v", blk.Kind)
	}
	if f2.g.Where(specb) != mbr.Root {
		t.Fatal("spec op should now sit at the branch node's root (speculated)")
	}
	// r9 is dead on the exit path, so only memory is observable: the
	// speculated op legitimately commits a value the original never
	// wrote there.
	f2.check(t, refb, initsb, nil)
	if f2.c.Hoists != 1 {
		t.Fatalf("hoists = %d", f2.c.Hoists)
	}
}

func TestMoveCJSplitsNode(t *testing.T) {
	f := newFixture(8)
	r1, r2 := f.al.Reg("r1"), f.al.Reg("r2")
	arr := f.al.Array("X")

	exitNode := f.g.NewNode()
	f.g.AddOp(&ir.Op{ID: f.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r1}, Mem: ir.MemRef{Array: arr, Index: 9}}, exitNode.Root)

	a := f.constOp(r1, 3)
	n1 := graph.AppendOp(f.g, nil, a)
	cj := &ir.Op{ID: f.al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r2}, Imm: 10, BImm: true, Rel: ir.Lt}
	nbr := graph.AppendBranch(f.g, n1, cj, exitNode)
	body := &ir.Op{ID: f.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r1}, Mem: ir.MemRef{Array: arr, Index: 0}}
	graph.AppendOp(f.g, nbr, body)

	inits := map[string]*sim.State{
		"cont": sim.NewState(),
		"exit": func() *sim.State { s := sim.NewState(); s.SetReg(r2, 99); return s }(),
	}
	ref := snapshot(t, f.g, inits)

	// First give the branch node an op: move the body store into the
	// continue leaf of nbr, so the cj's node has root ops when... the
	// store sits at the leaf, not the root. Move the cj up: its node's
	// root has no ops, subtrees are leaves.
	if blk := f.c.StepUp(body); blk.Kind != BlockNone {
		t.Fatalf("move body: %v", blk.Kind)
	}
	if blk := f.c.StepUp(cj); blk.Kind != BlockNone {
		t.Fatalf("move cj: %v", blk.Kind)
	}
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The cj now lives in n1; the store (true-leaf op) went to the
	// continue-side node; the false side points at the exit node.
	if f.g.NodeOf(cj) != n1 {
		t.Fatal("cj did not reach n1")
	}
	f.check(t, ref, inits, []ir.Reg{r1})
	if f.c.CJMoves != 1 {
		t.Fatalf("cjmoves = %d", f.c.CJMoves)
	}
}

func TestMoveCJClonesRootOpsToDrain(t *testing.T) {
	// A store cannot be hoisted to the branch node's root (stores do not
	// speculate), so an arithmetic op is the root op.
	f := newFixture(8)
	r1, r2, r3 := f.al.Reg("r1"), f.al.Reg("r2"), f.al.Reg("r3")
	arr := f.al.Array("X")
	a := f.constOp(r1, 3)
	m1 := graph.AppendOp(f.g, nil, a)
	cj := &ir.Op{ID: f.al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r2}, Imm: 10, BImm: true, Rel: ir.Lt}
	mbr := graph.AppendBranch(f.g, m1, cj, nil)
	add := f.addI(r3, r1, 4)
	m3 := graph.AppendOp(f.g, mbr, add)
	st := &ir.Op{ID: f.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{r3}, Mem: ir.MemRef{Array: arr, Index: 0}}
	graph.AppendOp(f.g, m3, st)

	inits := map[string]*sim.State{
		"cont": sim.NewState(),
		"exit": func() *sim.State { s := sim.NewState(); s.SetReg(r2, 99); return s }(),
	}
	ref := snapshot(t, f.g, inits)

	// add -> continue leaf of mbr, then hoist to mbr's root.
	if blk := f.c.StepUp(add); blk.Kind != BlockNone {
		t.Fatalf("move add: %v", blk.Kind)
	}
	if blk := f.c.StepUp(add); blk.Kind != BlockNone {
		t.Fatalf("hoist add: %v", blk.Kind)
	}
	// Now move the cj up: mbr's root ops {add} must be duplicated onto
	// the drain side.
	if blk := f.c.TryMoveCJUp(cj, true); blk.Kind != BlockNone {
		t.Fatalf("move cj: %v", blk.Kind)
	}
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Find the drain node: successor of m1 on the false side.
	var drain *graph.Node
	m1.VisitSuccessors(func(s *graph.Node) bool {
		if s.Drain {
			drain = s
		}
		return true
	})
	if drain == nil {
		t.Fatal("no drain node created")
	}
	var dOps []*ir.Op
	drain.Walk(func(v *graph.Vertex) { dOps = append(dOps, v.Ops...) })
	if len(dOps) != 1 || !dOps[0].Frozen || dOps[0].Origin != add.Origin {
		t.Fatalf("drain clone wrong: %v", dOps)
	}
	// r3 was speculated above the branch; it is dead on exit, so only
	// memory is compared.
	f.check(t, ref, inits, nil)
}

func TestMoveCJBranchSlotLimit(t *testing.T) {
	f := newFixture(8) // 1 branch slot
	r1 := f.al.Reg("r1")
	cj1 := &ir.Op{ID: f.al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r1}, Imm: 10, BImm: true, Rel: ir.Lt}
	cj2 := &ir.Op{ID: f.al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{r1}, Imm: 20, BImm: true, Rel: ir.Lt}
	n1 := graph.AppendBranch(f.g, nil, cj1, nil)
	n2 := graph.AppendBranch(f.g, n1, cj2, nil)
	f.g.RetargetLeaf(graph.ContinueLeaf(n2), f.g.NewNode())

	if blk := f.c.TryMoveCJUp(cj2, true); blk.Kind != BlockResource {
		t.Fatalf("expected branch-slot block, got %v", blk.Kind)
	}

	// With two branch slots the move succeeds and nests the jumps.
	f.c.M = machine.New(8).WithBranchSlots(2)
	if blk := f.c.TryMoveCJUp(cj2, true); blk.Kind != BlockNone {
		t.Fatalf("nested cj move failed: %v", blk.Kind)
	}
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}
	if n1.BranchCount() != 2 {
		t.Fatalf("branch count = %d, want 2", n1.BranchCount())
	}
	// The nested jump is now pinned by the outer one.
	if blk := f.c.TryMoveCJUp(cj2, true); blk.Kind != BlockDep || blk.By != cj1 {
		t.Fatalf("nested cj should be pinned by cj1, got %v", blk.Kind)
	}
}

// TestMaskCollisionIsNotADefinition: vertex summaries are 64-bit
// may-masks, so registers r and r+64 share a bit. A vertex that only
// touches r+64 answers MayDefine(r) and MayRead(r) true, and every
// reader must confirm such a hit exactly: DefSiteHere(r) is nil, a
// mover reading r passes the committed-path probe through that vertex,
// and a mover defining r passes move-past-read beside it. CrossCheck
// runs the reference scans next to every answer. The r+64 movers show
// the same vertices do block the register they really hold.
func TestMaskCollisionIsNotADefinition(t *testing.T) {
	f := newFixture(4)
	f.c.CrossCheck = true
	regs := make([]ir.Reg, 66)
	for i := range regs {
		regs[i] = f.al.Reg("")
	}
	r, alias, s := regs[1], regs[65], regs[2]
	if alias != r+64 {
		t.Fatalf("registers r%d and r%d do not share a mask bit", r, alias)
	}
	add := func(dst, a, b ir.Reg) *ir.Op {
		return &ir.Op{ID: f.al.OpID(), Kind: ir.Add, Dst: dst, Src: [2]ir.Reg{a, b}}
	}
	def := add(alias, alias, s)         // n1: defines and reads r+64
	readR := f.addI(f.al.Reg(""), r, 1) // n2: reads r
	readA := f.addI(f.al.Reg(""), alias, 1)
	defR := f.addI(r, s, 1)                  // n3: defines r
	defA := f.addI(alias, s, 2)              // n3: defines r+64
	reader := f.addI(f.al.Reg(""), alias, 2) // n3: reads r+64
	n1 := graph.AppendOp(f.g, nil, def)
	n2 := graph.AppendOp(f.g, n1, readR)
	f.g.AddOp(readA, n2.Root)
	n3 := graph.AppendOp(f.g, n2, defR)
	f.g.AddOp(defA, n3.Root)
	f.g.AddOp(reader, n3.Root)
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}

	for _, v := range []*graph.Vertex{n1.Root, n3.Root} {
		if !v.MayDefine(r) || !v.MayRead(r) {
			t.Fatalf("n%d: MayDefine(r)=%v MayRead(r)=%v, want both true (bit shared with r+64)",
				v.Node().ID, v.MayDefine(r), v.MayRead(r))
		}
	}
	if p, _ := n1.Root.DefSiteHere(r); p != nil {
		t.Fatalf("DefSiteHere(r) = %v, want nil: only r+64 is defined in n1", p)
	}

	// Committed path into n1: r collides with def, r+64 is def's.
	if blk := f.c.CanStepUp(readR, nil); blk.Kind != BlockNone {
		t.Errorf("reader of r blocked by %v (%v) on a mask collision", blk.By, blk.Kind)
	}
	if blk := f.c.CanStepUp(readA, nil); blk.Kind != BlockDep || blk.By != def {
		t.Errorf("reader of r+64: %v by %v, want a dependence on %v", blk.Kind, blk.By, def)
	}
	// Move-past-read out of n3: reader reads r+64, not r.
	if blk := f.c.CanStepUp(defR, nil); blk.Kind != BlockNone {
		t.Errorf("definer of r blocked by %v (%v) on a mask collision", blk.By, blk.Kind)
	}
	if blk := f.c.CanStepUp(defA, nil); blk.Kind != BlockDep || blk.By != reader {
		t.Errorf("definer of r+64: %v by %v, want a dependence on %v", blk.Kind, blk.By, reader)
	}

	for _, op := range []*ir.Op{readR, defR} {
		if blk := f.c.StepUp(op); blk.Kind != BlockNone {
			t.Fatalf("StepUp(%v): %v", op, blk.Kind)
		}
	}
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}
}

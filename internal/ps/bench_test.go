package ps

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
)

// moveBenchFixture builds the steady-state move-op scenario the
// migration loop hits millions of times: a chain
//
//	n0 [r8,r9 consts] -> n1 [r1..r4 consts] -> n2 [mover, hitter, keep]
//
// where mover reads r9 (defined two nodes up, so its probe into n1 is a
// summary miss — the common case) and hitter reads r1 (defined in n1,
// so its probe is a summary hit that must fall through to the full path
// scan and report the blocking producer).
func moveBenchFixture() (f *fixture, n2 *graph.Node, mover, hitter *ir.Op) {
	f = newFixture(8)
	r8, r9 := f.al.Reg("r8"), f.al.Reg("r9")
	n0 := graph.AppendOp(f.g, nil, f.constOp(r8, 8))
	f.g.AddOp(f.constOp(r9, 9), n0.Root)

	r1 := f.al.Reg("r1")
	n1 := graph.AppendOp(f.g, n0, f.constOp(r1, 0))
	for i := 1; i < 4; i++ {
		f.g.AddOp(f.constOp(f.al.Reg(""), int64(i)), n1.Root)
	}

	mover = f.addI(f.al.Reg("m"), r9, 1)
	hitter = f.addI(f.al.Reg("h"), r1, 1)
	keep := f.constOp(f.al.Reg("k"), 7)
	n2 = graph.AppendOp(f.g, n1, mover)
	f.g.AddOp(hitter, n2.Root)
	f.g.AddOp(keep, n2.Root)
	return f, n2, mover, hitter
}

// scanBenchFixture builds a branched source node for the move-past-read
// scan: the root holds the op being moved plus a conditional jump, and
// both leaves hold a handful of ops. A reader in the true leaf reads
// hitT's destination, a reader in the false leaf reads hitF's
// destination, and nothing reads miss's destination — so the own-tier
// gate skips the false leaf's op list for hitT, the true leaf's for
// hitF, and every op list for miss.
func scanBenchFixture() (f *fixture, n *graph.Node, miss, hitT, hitF *ir.Op) {
	f = newFixture(8)
	r1, r2, r3, rc := f.al.Reg("r1"), f.al.Reg("r2"), f.al.Reg("r3"), f.al.Reg("rc")
	n0 := graph.AppendOp(f.g, nil, f.constOp(rc, 0))
	exit := f.g.NewNode()
	f.g.AddOp(f.constOp(f.al.Reg(""), 0), exit.Root)

	cj := &ir.Op{ID: f.al.OpID(), Kind: ir.CJ, Src: [2]ir.Reg{rc}, Imm: 10, BImm: true, Rel: ir.Lt}
	n = graph.AppendBranch(f.g, n0, cj, exit)
	miss = f.constOp(r1, 1)
	hitT = f.constOp(r2, 2)
	hitF = f.constOp(r3, 3)
	f.g.AddOp(miss, n.Root)
	f.g.AddOp(hitT, n.Root)
	f.g.AddOp(hitF, n.Root)
	for i := 0; i < 3; i++ {
		f.g.AddOp(f.constOp(f.al.Reg(""), int64(i)), n.Root.True)
		f.g.AddOp(f.constOp(f.al.Reg(""), int64(i)), n.Root.False)
	}
	f.g.AddOp(f.addI(f.al.Reg("rd"), r2, 1), n.Root.True)
	f.g.AddOp(f.addI(f.al.Reg("rf"), r3, 1), n.Root.False)
	return f, n, miss, hitT, hitF
}

// pathBenchFixture builds the committed-path scan scenario: a chain
//
//	n0 [r8,r9 consts] -> n1 [consts, c1 = c0, c0 = r9, rh = r8+1] -> n2
//
// where miss (in n2) reads r9 — defined two nodes up, so n1's
// path-prefix filter proves the scan unnecessary — hit reads rh, whose
// non-copy producer on the path blocks the move, and chain reads c1,
// which copy-propagates through two hops (c1→c0→r9) without blocking.
func pathBenchFixture() (f *fixture, leaf *graph.Vertex, miss, hit, chain *ir.Op) {
	f = newFixture(16)
	r8, r9 := f.al.Reg("r8"), f.al.Reg("r9")
	n0 := graph.AppendOp(f.g, nil, f.constOp(r8, 8))
	f.g.AddOp(f.constOp(r9, 9), n0.Root)

	n1 := graph.AppendOp(f.g, n0, f.constOp(f.al.Reg(""), 0))
	for i := 1; i < 4; i++ {
		f.g.AddOp(f.constOp(f.al.Reg(""), int64(i)), n1.Root)
	}
	c0, c1, rh := f.al.Reg("c0"), f.al.Reg("c1"), f.al.Reg("rh")
	f.g.AddOp(&ir.Op{ID: f.al.OpID(), Kind: ir.Copy, Dst: c1, Src: [2]ir.Reg{c0}}, n1.Root)
	f.g.AddOp(&ir.Op{ID: f.al.OpID(), Kind: ir.Copy, Dst: c0, Src: [2]ir.Reg{r9}}, n1.Root)
	f.g.AddOp(f.addI(rh, r8, 1), n1.Root)

	miss = f.addI(f.al.Reg("m"), r9, 1)
	hit = f.addI(f.al.Reg("h"), rh, 1)
	chain = f.addI(f.al.Reg("x"), c1, 1)
	n2 := graph.AppendOp(f.g, n1, miss)
	f.g.AddOp(hit, n2.Root)
	f.g.AddOp(chain, n2.Root)
	return f, n1.Root, miss, hit, chain
}

// BenchmarkTryMoveOpUp measures one move-op legality check + move.
// probeMiss is the dominant steady-state shape (the target instruction
// defines none of the op's registers, so the summary filter skips the
// path walk); probeHit forces the retained full scan; commit performs
// the move and puts the op back through the graph mutators.
func BenchmarkTryMoveOpUp(b *testing.B) {
	b.Run("probeMiss", func(b *testing.B) {
		f, _, mover, _ := moveBenchFixture()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if blk := f.c.TryMoveOpUp(mover, false, nil); blk.Kind != BlockNone {
				b.Fatalf("probe blocked: %v", blk.Kind)
			}
		}
	})
	b.Run("probeHit", func(b *testing.B) {
		f, _, _, hitter := moveBenchFixture()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if blk := f.c.TryMoveOpUp(hitter, false, nil); blk.Kind != BlockDep {
				b.Fatalf("probe not blocked: %v", blk.Kind)
			}
		}
	})
	b.Run("commit", func(b *testing.B) {
		f, n2, mover, _ := moveBenchFixture()
		home := f.g.Where(mover)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if blk := f.c.TryMoveOpUp(mover, true, nil); blk.Kind != BlockNone {
				b.Fatalf("move blocked: %v", blk.Kind)
			}
			f.g.MoveOp(mover, home) // reset for the next iteration
		}
		b.StopTimer()
		if f.g.NodeOf(mover) != n2 {
			b.Fatal("mover not restored")
		}
	})
}

// BenchmarkScanMovePastRead measures the left-behind-reader check over
// a branched source node: miss visits all three vertices but scans no
// op list, since no own tier holds a reader; hitTrue and hitFalse scan
// only the one leaf whose own tier holds the reader.
func BenchmarkScanMovePastRead(b *testing.B) {
	bench := func(op func(f *fixture, miss, hitT, hitF *ir.Op) *ir.Op, want BlockKind) func(b *testing.B) {
		return func(b *testing.B) {
			f, n, miss, hitT, hitF := scanBenchFixture()
			target := op(f, miss, hitT, hitF)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if blk := f.c.scanMovePastRead(n, target, nil); blk.Kind != want {
					b.Fatalf("scan verdict %v, want %v", blk.Kind, want)
				}
			}
		}
	}
	b.Run("miss", bench(func(f *fixture, miss, hitT, hitF *ir.Op) *ir.Op { return miss }, BlockNone))
	b.Run("hitTrue", bench(func(f *fixture, miss, hitT, hitF *ir.Op) *ir.Op { return hitT }, BlockDep))
	b.Run("hitFalse", bench(func(f *fixture, miss, hitT, hitF *ir.Op) *ir.Op { return hitF }, BlockDep))
}

// BenchmarkScanCommittedPath measures the committed-path dependence
// scan in its three shapes: miss is the O(uses) prefix-filter proof
// that no scan is needed, hit resolves a filter hit to its blocking
// producer, and copyChain propagates the moving op's use through a
// two-hop copy chain on the path. hit and copyChain run the movers'
// shared entry point, checkCommittedPath.
func BenchmarkScanCommittedPath(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		f, leaf, miss, _, _ := pathBenchFixture()
		_ = f
		var useBuf [3]ir.Reg
		uses := miss.Uses(useBuf[:0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pathScanNeeded(leaf, miss, uses) != 0 {
				b.Fatal("prefix filter hit on the miss shape")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		f, leaf, _, hit, _ := pathBenchFixture()
		var useBuf [3]ir.Reg
		if pathScanNeeded(leaf, hit, hit.Uses(useBuf[:0])) == 0 {
			b.Fatal("prefix filter missed the hit shape")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var rwBuf [8]rewrite
			blk, _ := f.c.checkCommittedPath(leaf, hit, nil, rwBuf[:0])
			if blk.Kind != BlockDep {
				b.Fatalf("hit not blocked: %v", blk.Kind)
			}
		}
	})
	b.Run("copyChain", func(b *testing.B) {
		f, leaf, _, _, chain := pathBenchFixture()
		var useBuf [3]ir.Reg
		if pathScanNeeded(leaf, chain, chain.Uses(useBuf[:0])) == 0 {
			b.Fatal("prefix filter missed the chain shape")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var rwBuf [8]rewrite
			blk, rw := f.c.checkCommittedPath(leaf, chain, nil, rwBuf[:0])
			if blk.Kind != BlockNone || len(rw) != 2 {
				b.Fatalf("chain verdict %v with %d rewrites, want none/2", blk.Kind, len(rw))
			}
		}
	})
}

// The move-op probe and the move-past-read scan run inside the Gapless-
// move test's inner search loop; an allocation there multiplies into
// the schedule's hottest path. These guards pin both at zero for the
// summary-filtered miss AND the full-scan hit (the retained walks use
// the documented stack buffers — see stackbuf_test.go for the bounds).
func TestMoveProbesZeroAlloc(t *testing.T) {
	f, _, mover, hitter := moveBenchFixture()
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		f.c.TryMoveOpUp(mover, false, nil)
	}); n != 0 {
		t.Errorf("probe (summary miss) allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		f.c.TryMoveOpUp(hitter, false, nil)
	}); n != 0 {
		t.Errorf("probe (full scan) allocates %v/op, want 0", n)
	}
}

func TestScanMovePastReadZeroAlloc(t *testing.T) {
	f, n, miss, hitT, hitF := scanBenchFixture()
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   *ir.Op
	}{{"summary miss", miss}, {"reader in true leaf", hitT}, {"reader in false leaf", hitF}} {
		if a := testing.AllocsPerRun(100, func() {
			f.c.scanMovePastRead(n, tc.op, nil)
		}); a != 0 {
			t.Errorf("scan (%s) allocates %v/op, want 0", tc.name, a)
		}
	}
}

// TestScanCommittedPathZeroAlloc pins the prefix filter and the
// movers' shared committed-path check at zero allocations for every
// scan shape — including the copy-chain rewrite case, whose rewrite
// list must stay inside the caller's stack buffer.
func TestScanCommittedPathZeroAlloc(t *testing.T) {
	f, leaf, miss, hit, chain := pathBenchFixture()
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		var useBuf [3]ir.Reg
		if pathScanNeeded(leaf, miss, miss.Uses(useBuf[:0])) != 0 {
			t.Fatal("prefix filter hit on the miss shape")
		}
	}); a != 0 {
		t.Errorf("filter miss allocates %v/op, want 0", a)
	}
	for _, tc := range []struct {
		name string
		op   *ir.Op
	}{{"blocking hit", hit}, {"copy chain", chain}} {
		if a := testing.AllocsPerRun(100, func() {
			var rwBuf [8]rewrite
			f.c.checkCommittedPath(leaf, tc.op, nil, rwBuf[:0])
		}); a != 0 {
			t.Errorf("committed-path check (%s) allocates %v/op, want 0", tc.name, a)
		}
	}
}

// TestResolveCommittedPathMatchesReference drives the walk-free
// resolver and the retained reference scan over every scan shape of the
// bench fixture — including the order-sensitive copy-chain rewrites —
// and requires identical verdicts, use lists, and rewrite lists. The
// randomized equivalence sweep lives in
// TestCrossCheckedRandomMutationSequences; this is the deterministic
// unit-level check.
func TestResolveCommittedPathMatchesReference(t *testing.T) {
	f, leaf, miss, hit, chain := pathBenchFixture()
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, op := range []*ir.Op{miss, hit, chain} {
		var ub1, ub2 [3]ir.Reg
		var rb1, rb2 [8]rewrite
		uses := op.UsesView(ub1[:0])
		gotB, gotU, gotR := resolveCommittedPath(leaf, op, nil, uses, ub1[:0], rb1[:0], pathScanNeeded(leaf, op, uses))
		refB, refU, refR := scanCommittedPath(leaf, op, nil, op.Uses(ub2[:0]), rb2[:0])
		if gotB != refB || len(gotU) != len(refU) || len(gotR) != len(refR) {
			t.Fatalf("%v: resolver (%v,%d uses,%d rewrites) != reference (%v,%d uses,%d rewrites)",
				op, gotB.Kind, len(gotU), len(gotR), refB.Kind, len(refU), len(refR))
		}
		for i := range gotU {
			if gotU[i] != refU[i] {
				t.Fatalf("%v: use %d: resolver r%d, reference r%d", op, i, gotU[i], refU[i])
			}
		}
		for i := range gotR {
			if gotR[i] != refR[i] {
				t.Fatalf("%v: rewrite %d diverged", op, i)
			}
		}
	}
}

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
// where miss (in n2) reads r9 — defined two nodes up, so n1's summary
// proves no path op conflicts — hit reads rh, whose non-copy producer
// on the path blocks the move, and chain reads c1, which
// copy-propagates through two hops (c1→c0→r9) without blocking.
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

// BenchmarkScanCommittedPath measures the movers' shared
// committed-path check, checkCommittedPath, in its three shapes: miss
// finds no event on the path, hit resolves the blocking producer
// through DefSiteHere, and copyChain meets a copy first and
// hands over to the reference scan, which propagates the moving op's
// use through a two-hop copy chain.
func BenchmarkScanCommittedPath(b *testing.B) {
	bench := func(op func(miss, hit, chain *ir.Op) *ir.Op, want BlockKind, wantRewrites int) func(b *testing.B) {
		return func(b *testing.B) {
			f, leaf, miss, hit, chain := pathBenchFixture()
			target := op(miss, hit, chain)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var rwBuf [8]rewrite
				blk, rw := f.c.checkCommittedPath(leaf, target, nil, rwBuf[:0])
				if blk.Kind != want || len(rw) != wantRewrites {
					b.Fatalf("verdict %v with %d rewrites, want %v/%d", blk.Kind, len(rw), want, wantRewrites)
				}
			}
		}
	}
	b.Run("miss", bench(func(miss, hit, chain *ir.Op) *ir.Op { return miss }, BlockNone, 0))
	b.Run("hit", bench(func(miss, hit, chain *ir.Op) *ir.Op { return hit }, BlockDep, 0))
	b.Run("copyChain", bench(func(miss, hit, chain *ir.Op) *ir.Op { return chain }, BlockNone, 2))
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

// TestScanCommittedPathZeroAlloc pins the movers' shared
// committed-path check at zero allocations for every scan shape —
// including the copy-chain rewrite case, whose rewrite list must stay
// inside the caller's stack buffer.
func TestScanCommittedPathZeroAlloc(t *testing.T) {
	f, leaf, miss, hit, chain := pathBenchFixture()
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   *ir.Op
	}{{"no event", miss}, {"blocking hit", hit}, {"copy chain", chain}} {
		if a := testing.AllocsPerRun(100, func() {
			var rwBuf [8]rewrite
			f.c.checkCommittedPath(leaf, tc.op, nil, rwBuf[:0])
		}); a != 0 {
			t.Errorf("committed-path check (%s) allocates %v/op, want 0", tc.name, a)
		}
	}
}

// TestResolveCommittedPathMatchesReference drives the movers' shared
// committed-path check and the retained reference scan over every scan
// shape of the bench fixture — including the order-sensitive copy-chain
// rewrites — and requires identical verdicts, blockers, and rewrite
// lists. Three shapes are added on top:
//   - outDep, a mover c1 = c1 + 1 whose one use and destination the
//     path copy c1 = c0 both define: the reference rewrites the use,
//     then blocks on the output dependence, so the rewrite must be
//     reported alongside the block;
//   - ld, a load past an aliasing path store, which the memory probe
//     must name;
//   - each blocker again passed as excluding (the Gapless-move probe's
//     leaving op), which both scans treat as absent.
//
// The randomized equivalence sweep lives in
// TestCrossCheckedRandomMutationSequences; this is the deterministic
// unit-level check.
func TestResolveCommittedPathMatchesReference(t *testing.T) {
	f, leaf, miss, hit, chain := pathBenchFixture()
	n2 := f.g.NodeOf(chain)
	c1 := chain.Src[0]
	outDep := f.addI(c1, c1, 1)
	f.g.AddOp(outDep, n2.Root)
	arr := f.al.Array("X")
	st := &ir.Op{ID: f.al.OpID(), Kind: ir.Store, Src: [2]ir.Reg{miss.Src[0]}, Mem: ir.MemRef{Array: arr}}
	f.g.AddOp(st, leaf)
	ld := &ir.Op{ID: f.al.OpID(), Kind: ir.Load, Dst: f.al.Reg("l"), Mem: ir.MemRef{Array: arr}}
	f.g.AddOp(ld, n2.Root)
	if err := f.g.Validate(); err != nil {
		t.Fatal(err)
	}
	producer, _ := leaf.DefSiteHere(hit.Src[0])
	copyC1, _ := leaf.DefSiteHere(c1)
	// by and rewrites pin the reference's own answer, so a fixture
	// change cannot quietly turn a shape into a trivial case.
	for _, tc := range []struct {
		op, excluding, by *ir.Op
		rewrites          int
	}{
		{miss, nil, nil, 0}, {hit, nil, producer, 0}, {chain, nil, nil, 2},
		{outDep, nil, copyC1, 1}, {ld, nil, st, 0},
		{hit, producer, nil, 0}, {ld, st, nil, 0},
	} {
		var ub [3]ir.Reg
		var rb1, rb2 [8]rewrite
		gotB, gotR := f.c.checkCommittedPath(leaf, tc.op, tc.excluding, rb1[:0])
		refB, _, refR := scanCommittedPath(leaf, tc.op, tc.excluding, tc.op.Uses(ub[:0]), rb2[:0])
		if refB.By != tc.by || len(refR) != tc.rewrites {
			t.Fatalf("reference on %v excluding %v: blocked by %v with %d rewrites, want %v/%d",
				tc.op, tc.excluding, refB.By, len(refR), tc.by, tc.rewrites)
		}
		if gotB != refB || len(gotR) != len(refR) {
			t.Fatalf("%v excluding %v: check (%v by %v, %d rewrites) != reference (%v by %v, %d rewrites)",
				tc.op, tc.excluding, gotB.Kind, gotB.By, len(gotR), refB.Kind, refB.By, len(refR))
		}
		for i := range gotR {
			if gotR[i] != refR[i] {
				t.Fatalf("%v excluding %v: rewrite %d diverged", tc.op, tc.excluding, i)
			}
		}
	}
}

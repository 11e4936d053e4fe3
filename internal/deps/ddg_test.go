package deps

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ir"
)

// randomProgram generates n ops spanning every dependence-relevant
// shape: defs and uses over a small register pool (forcing true, anti,
// and output overlaps), direct and indirect loads/stores over a couple
// of arrays, and immediate-operand variants.
func randomProgram(rng *rand.Rand, n int) []*ir.Op {
	reg := func() ir.Reg { return ir.Reg(1 + rng.Intn(8)) }
	mem := func() ir.MemRef {
		m := ir.MemRef{Array: ir.Array(1 + rng.Intn(2)), Index: int64(rng.Intn(4))}
		if rng.Intn(4) == 0 {
			m.IndexReg = reg()
		}
		return m
	}
	ops := make([]*ir.Op, n)
	for i := range ops {
		op := &ir.Op{ID: i + 1, Origin: i, Iter: 0}
		switch rng.Intn(6) {
		case 0:
			op.Kind = ir.Const
			op.Dst = reg()
			op.Imm = int64(rng.Intn(100))
		case 1:
			op.Kind = ir.Copy
			op.Dst, op.Src[0] = reg(), reg()
		case 2:
			op.Kind = ir.Add
			op.Dst, op.Src[0] = reg(), reg()
			if rng.Intn(2) == 0 {
				op.BImm, op.Imm = true, 7
			} else {
				op.Src[1] = reg()
			}
		case 3:
			op.Kind = ir.Load
			op.Dst, op.Mem = reg(), mem()
		case 4:
			op.Kind = ir.Store
			op.Src[0], op.Mem = reg(), mem()
		case 5:
			op.Kind = ir.CJ
			op.Src[0] = reg()
			if rng.Intn(2) == 0 {
				op.BImm, op.Imm = true, 3
			} else {
				op.Src[1] = reg()
			}
		}
		ops[i] = op
	}
	return ops
}

// pairwiseSuccs is the oracle for the DDG's successor relation: the
// later ops b with Serializes(a, b), each once, straight from the
// definition.
func pairwiseSuccs(ops []*ir.Op, i int) []int {
	var succs []int
	for j := i + 1; j < len(ops); j++ {
		if Serializes(ops[i], ops[j]) {
			succs = append(succs, j)
		}
	}
	return succs
}

// checkAgainstPairwise asserts that Dependents counts each op's
// pairwise successors and ChainLen matches a backward recomputation
// over them.
func checkAgainstPairwise(t *testing.T, name string, ops []*ir.Op) {
	t.Helper()
	d := Build(ops)
	chain := make([]int, len(ops))
	for i := len(ops) - 1; i >= 0; i-- {
		succs := pairwiseSuccs(ops, i)
		best := 0
		for _, j := range succs {
			best = max(best, chain[j])
		}
		chain[i] = best + 1
		if got := d.Dependents(ops[i]); got != len(succs) {
			t.Fatalf("%s: op %d (%v): dependents %d, want %d", name, i, ops[i], got, len(succs))
		}
		if got := d.ChainLen(ops[i]); got != chain[i] {
			t.Fatalf("%s: op %d (%v): chain %d, want %d", name, i, ops[i], got, chain[i])
		}
	}
}

// TestCSRMatchesNaiveEdges checks the DDG's priority numbers against
// the pairwise definition, on random programs and on the shapes the
// build's successor de-duplication must get right.
func TestCSRMatchesNaiveEdges(t *testing.T) {
	const r1, r2, r3, r4 = ir.Reg(1), ir.Reg(2), ir.Reg(3), ir.Reg(4)
	a := ir.MemRef{Array: 1, Index: 2}
	cases := map[string][]*ir.Op{
		// One op reads r1 twice: a single dependent.
		"double read": {
			{Kind: ir.Const, Dst: r1, Imm: 3},
			{Kind: ir.Mul, Dst: r2, Src: [2]ir.Reg{r1, r1}},
			{Kind: ir.Add, Dst: r3, Src: [2]ir.Reg{r2, r1}},
		},
		// The store reads the loaded value and hits the loaded cell:
		// a register and a memory dependence on one pair.
		"load-store pair": {
			{Kind: ir.Load, Dst: r1, Mem: a},
			{Kind: ir.Store, Src: [2]ir.Reg{r1}, Mem: a},
			{Kind: ir.Load, Dst: r2, Mem: a},
			{Kind: ir.Store, Src: [2]ir.Reg{r2}, Mem: ir.MemRef{Array: 1, IndexReg: r1}},
		},
		// r1 is defined twice: the first def's register successors are
		// every later reader of r1, the redefinition notwithstanding.
		"redefinition": {
			{Kind: ir.Const, Dst: r1, Imm: 1},
			{Kind: ir.Add, Dst: r2, Src: [2]ir.Reg{r1}, Imm: 1, BImm: true},
			{Kind: ir.Const, Dst: r1, Imm: 2},
			{Kind: ir.Add, Dst: r3, Src: [2]ir.Reg{r1, r2}},
			{Kind: ir.Add, Dst: r1, Src: [2]ir.Reg{r1, r3}},
			{Kind: ir.CJ, Src: [2]ir.Reg{r1, r4}, Rel: ir.Lt},
		},
	}
	for name, ops := range cases {
		for i, op := range ops {
			op.ID, op.Origin = i+1, i
		}
		checkAgainstPairwise(t, name, ops)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		checkAgainstPairwise(t, fmt.Sprintf("trial %d", trial), randomProgram(rng, 3+rng.Intn(60)))
	}
}

// TestMatrixIgnoresForeignOps: ops outside the analyzed program (frozen
// clones, another program's ops reusing the same index range) get no
// priority data, even when their Index collides with an analyzed op's.
func TestMatrixIgnoresForeignOps(t *testing.T) {
	a := &ir.Op{ID: 1, Origin: 0, Kind: ir.Const, Dst: 1, Imm: 5}
	b := &ir.Op{ID: 2, Origin: 1, Kind: ir.Add, Dst: 2, Src: [2]ir.Reg{1}, Imm: 1, BImm: true}
	d := Build([]*ir.Op{a, b})
	if d.ChainLen(a) != 2 || d.Dependents(a) != 1 {
		t.Fatalf("a: chain %d, dependents %d, want 2 and 1", d.ChainLen(a), d.Dependents(a))
	}

	clone := a.Clone(99, true)
	if clone.Index != ir.NoIndex {
		t.Fatalf("frozen clone Index = %d, want NoIndex", clone.Index)
	}
	// An op from a different program whose Index collides with a's.
	foreign := &ir.Op{ID: 7, Index: 0, Kind: ir.Const, Dst: 9, Imm: 1}
	for _, op := range []*ir.Op{clone, foreign} {
		if d.ChainLen(op) != 0 || d.Dependents(op) != 0 {
			t.Fatalf("%v leaked into priority data", op)
		}
	}
}

// TestMatrixQueryAllocs pins the hot-path guarantee: priority lookups
// allocate nothing, for analyzed and foreign ops alike.
func TestMatrixQueryAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := randomProgram(rng, 64)
	d := Build(ops)
	foreign := ops[4].Clone(999, true)
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		sink += d.ChainLen(ops[4]) + d.Dependents(ops[7])
		sink += d.ChainLen(foreign) + d.Dependents(foreign)
	})
	if allocs != 0 {
		t.Fatalf("priority lookups allocate %v times/run, want 0", allocs)
	}
	_ = sink
}

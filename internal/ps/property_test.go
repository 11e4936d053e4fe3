package ps

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sim"
)

// randomProgram builds a random straight-line chain of nOps operations
// over a small register and memory pool, optionally with a conditional
// jump in the middle whose false side runs a short exit stub. Reading
// never-written registers is fine (they hold zero), so no SSA discipline
// is needed for the program to have well-defined semantics.
func randomProgram(rng *rand.Rand, nOps int, withBranch bool) (*graph.Graph, *ir.Alloc, []*ir.Op) {
	al := ir.NewAlloc()
	g := graph.New(al)
	const regs = 6
	regOf := func() ir.Reg { return ir.Reg(rng.Intn(regs) + 1) }
	arrA := al.Array("A")
	arrB := al.Array("B")
	arrOf := func() ir.Array {
		if rng.Intn(2) == 0 {
			return arrA
		}
		return arrB
	}
	randOp := func(origin int) *ir.Op {
		op := &ir.Op{ID: al.OpID(), Origin: origin, Iter: 0}
		switch rng.Intn(7) {
		case 0:
			op.Kind = ir.Const
			op.Dst = regOf()
			op.Imm = int64(rng.Intn(20))
		case 1:
			op.Kind = ir.Copy
			op.Dst = regOf()
			op.Src[0] = regOf()
		case 2, 3:
			op.Kind = ir.Opcode(int(ir.Add) + rng.Intn(4)) // Add..Div
			op.Dst = regOf()
			op.Src[0] = regOf()
			if rng.Intn(2) == 0 {
				op.BImm = true
				op.Imm = int64(rng.Intn(5) + 1)
			} else {
				op.Src[1] = regOf()
			}
		case 4, 5:
			op.Kind = ir.Load
			op.Dst = regOf()
			op.Mem = ir.MemRef{Array: arrOf(), Index: int64(rng.Intn(4))}
		default:
			op.Kind = ir.Store
			op.Src[0] = regOf()
			op.Mem = ir.MemRef{Array: arrOf(), Index: int64(rng.Intn(4))}
		}
		return op
	}

	var ops []*ir.Op
	var tail *graph.Node
	branchAt := -1
	if withBranch {
		branchAt = nOps / 2
	}
	for i := 0; i < nOps; i++ {
		if i == branchAt {
			// Exit stub: one store so drain execution is observable.
			stub := g.NewNode()
			stOp := &ir.Op{ID: al.OpID(), Origin: 100, Iter: 0, Kind: ir.Store,
				Src: [2]ir.Reg{regOf()}, Mem: ir.MemRef{Array: arrOf(), Index: 7}}
			g.AddOp(stOp, stub.Root)
			cj := &ir.Op{ID: al.OpID(), Origin: 101, Iter: 0, Kind: ir.CJ,
				Src: [2]ir.Reg{regOf()}, Imm: int64(rng.Intn(10)), BImm: true, Rel: ir.Lt}
			tail = graph.AppendBranch(g, tail, cj, stub)
			ops = append(ops, cj)
			continue
		}
		op := randOp(i)
		tail = graph.AppendOp(g, tail, op)
		ops = append(ops, op)
	}
	return g, al, ops
}

func randomStates(rng *rand.Rand, n int) []*sim.State {
	var states []*sim.State
	for i := 0; i < n; i++ {
		s := sim.NewState()
		for r := 1; r <= 6; r++ {
			s.SetReg(ir.Reg(r), int64(rng.Intn(21)-10))
		}
		for a := 1; a <= 2; a++ {
			for idx := 0; idx < 8; idx++ {
				s.SetMem(ir.Array(a), int64(idx), int64(rng.Intn(30)))
			}
		}
		states = append(states, s)
	}
	return states
}

// TestRandomStepUpPreservesSemantics applies hundreds of random legal
// StepUps to random programs and checks after every mutation that the
// graph still validates and that memory semantics are unchanged on
// several random initial states. This is the central soundness property
// of the transformation layer: any sequence of legal PS transformations
// preserves the program's observable behaviour.
func TestRandomStepUpPreservesSemantics(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			withBranch := seed%2 == 0
			g, _, ops := randomProgram(rng, 14, withBranch)
			if err := g.Validate(); err != nil {
				t.Fatalf("initial validate: %v", err)
			}
			states := randomStates(rng, 4)
			var refs []*sim.State
			for _, s := range states {
				res, err := sim.Run(g, s, 1000)
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, res.State)
			}
			ctx := NewCtx(g, machine.New(1+rng.Intn(3)), nil)
			moved := 0
			for step := 0; step < 300; step++ {
				op := ops[rng.Intn(len(ops))]
				if g.Where(op) == nil {
					continue // spliced away? ops are never deleted, but be safe
				}
				blk := ctx.StepUp(op)
				if blk.Kind != BlockNone {
					continue
				}
				moved++
				if err := g.Validate(); err != nil {
					t.Fatalf("step %d (op %v): validate: %v", step, op, err)
				}
				for i, s := range states {
					res, err := sim.Run(g, s, 1000)
					if err != nil {
						t.Fatalf("step %d: sim: %v", step, err)
					}
					if err := sim.EquivalentMem(refs[i], res.State); err != nil {
						t.Fatalf("step %d (op %v): semantics changed: %v\n%s",
							step, op, err, g.String())
					}
				}
			}
			if moved == 0 {
				t.Log("no moves were legal for this seed (acceptable but rare)")
			}
		})
	}
}

// TestCrossCheckedRandomMutationSequences drives random mutation
// sequences with Ctx.CrossCheck enabled, so every use-mask-gated
// move-past-read scan runs next to its retained reference scan and
// panics on any divergence in verdict or blocker. Renamed moves are
// mixed in: renaming's RetargetDef and copy compensations mutate the
// use masks mid-sequence, which is exactly the state the filter must
// stay exact under.
func TestCrossCheckedRandomMutationSequences(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, _, ops := randomProgram(rng, 12, seed%2 == 0)
		ctx := NewCtx(g, machine.New(1+rng.Intn(3)), nil)
		ctx.CrossCheck = true
		moved := 0
		for step := 0; step < 120; step++ {
			op := ops[rng.Intn(len(ops))]
			if g.Where(op) == nil {
				continue
			}
			var blk Block
			if rng.Intn(4) == 0 && !op.IsBranch() && g.Where(op) == g.NodeOf(op).Root {
				blk = ctx.TryMoveOpUpRenamed(op)
			} else {
				blk = ctx.StepUp(op)
			}
			if blk.Kind != BlockNone {
				continue
			}
			moved++
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d step %d (op %v): validate: %v", seed, step, op, err)
			}
		}
		if moved == 0 && seed == 1 {
			t.Log("seed 1: no moves were legal (acceptable but rare)")
		}
	}
}

// TestRandomRenamedMoves drives the renaming transformation over random
// programs, which (unlike the SSA-renamed pipelines) are full of output
// and anti dependences that only renaming can move past.
func TestRandomRenamedMoves(t *testing.T) {
	for seed := int64(50); seed < 56; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, _, ops := randomProgram(rng, 12, false)
		states := randomStates(rng, 3)
		var refs []*sim.State
		for _, s := range states {
			res, err := sim.Run(g, s, 1000)
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, res.State)
		}
		ctx := NewCtx(g, machine.New(3), nil)
		renamed := 0
		for step := 0; step < 200; step++ {
			op := ops[rng.Intn(len(ops))]
			if op.IsBranch() || g.Where(op) == nil {
				continue
			}
			if g.Where(op) != g.NodeOf(op).Root {
				continue
			}
			before := ctx.Renames
			if blk := ctx.TryMoveOpUpRenamed(op); blk.Kind != BlockNone {
				continue
			}
			if ctx.Renames > before {
				renamed++
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d step %d: validate: %v", seed, step, err)
			}
			for i, s := range states {
				res, err := sim.Run(g, s, 1000)
				if err != nil {
					t.Fatal(err)
				}
				if err := sim.EquivalentMem(refs[i], res.State); err != nil {
					t.Fatalf("seed %d step %d (op %v): semantics: %v", seed, step, op, err)
				}
			}
		}
		if renamed == 0 {
			t.Logf("seed %d: no renames triggered", seed)
		}
	}
}

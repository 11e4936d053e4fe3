// Package fuzzgen generates random — but seeded and fully deterministic
// — loop specifications for differential fuzzing: the same seed always
// produces the same ir.LoopSpec, the same workload, and therefore (all
// schedulers being deterministic) the same verdict from the oracle
// harness. The generator sweeps the hazard axes the ILP literature
// catalogs for loop schedulers: register RAW chains and loop-carried
// recurrences, memory aliasing in its three flavors (disjoint streams,
// affine cross-iteration overlap, indirect subscripts that serialize
// conservatively), dependence density, live-in/live-out interface size,
// and loop-control shape (start offset, step).
//
// Everything a generated loop computes is observable — through stores,
// through live-out accumulators, or both — so a scheduling bug cannot
// hide in dead code. Generated specs always pass ir.LoopSpec.Validate
// and round-trip bit-for-bit through textir (property-tested), which is
// what lets fuzz-found failures be minimized and checked into the
// regression corpus as plain text.
package fuzzgen

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/ir"
)

// MemStyle selects the memory-aliasing flavor of a generated loop.
type MemStyle uint8

const (
	// MemNone generates a pure register loop (no loads or stores).
	MemNone MemStyle = iota
	// MemStream reads and writes disjoint affine streams (vectorizable,
	// LL1/LL7-shaped).
	MemStream
	// MemOverlap reads and writes the same arrays with small affine
	// offsets, creating cross-iteration RAW/WAR/WAW memory dependencies
	// (LL5/LL11-shaped).
	MemOverlap
	// MemIndirect uses indirect subscripts through a loaded index
	// variable, which conservative dependence analysis serializes
	// (LL13/LL14-shaped).
	MemIndirect
	// MemMixed draws each reference's style at random from the above.
	MemMixed
)

var memStyleNames = [...]string{
	MemNone: "none", MemStream: "stream", MemOverlap: "overlap",
	MemIndirect: "indirect", MemMixed: "mixed",
}

// String returns the style's short name.
func (s MemStyle) String() string {
	if int(s) < len(memStyleNames) {
		return memStyleNames[s]
	}
	return fmt.Sprintf("style(%d)", uint8(s))
}

// Params spans the generator's parameter space. The zero value is not
// useful; start from SweepParams or fill every field.
type Params struct {
	// Ops is the target body-operation count (memory index setup may
	// add a couple).
	Ops int
	// Density is the probability an arithmetic operand is drawn from
	// the most recent definitions (long RAW chains) rather than from
	// the whole defined pool (wide, parallel dataflow).
	Density float64
	// MemFrac is the fraction of operations touching memory; StoreFrac
	// is the fraction of those that are stores.
	MemFrac   float64
	StoreFrac float64
	// Mem selects the aliasing style of memory references.
	Mem MemStyle
	// LiveIns is the number of live-in scalar coefficients; Accs the
	// number of loop-carried accumulators (live-in AND live-out, each
	// updated once per iteration — a register recurrence).
	LiveIns int
	Accs    int
	// Start and Step shape the loop control.
	Start, Step int64
}

// SweepParams derives one point of the parameter space from a seed,
// sweeping every axis. It is the distribution behind SweepSpec.
func SweepParams(seed int64) Params {
	rng := rand.New(rand.NewSource(seed))
	p := Params{
		Ops:       3 + rng.Intn(14),
		Density:   []float64{0.2, 0.5, 0.8}[rng.Intn(3)],
		MemFrac:   []float64{0, 0.3, 0.5, 0.7}[rng.Intn(4)],
		StoreFrac: 0.35,
		Mem:       MemStyle(1 + rng.Intn(4)), // stream, overlap, indirect, mixed
		LiveIns:   1 + rng.Intn(4),
		Accs:      rng.Intn(3),
		Start:     int64(rng.Intn(2)),
		Step:      int64(1 + rng.Intn(2)),
	}
	if p.MemFrac == 0 {
		p.Mem = MemNone
	}
	return p
}

// SweepSpec generates the seed's loop from the seed's own parameter
// point — the one-argument entry the fuzz sweep iterates.
func SweepSpec(seed int64) *ir.LoopSpec {
	return Generate(seed, SweepParams(seed))
}

// gen carries generator state for one loop.
type gen struct {
	rng     *rand.Rand
	p       Params
	body    []ir.BodyOp
	defined []string // operand pool: live-ins, accumulators, temps
	recent  []string // most recent definitions, for Density chains
	idxVar  string   // loaded index variable for indirect references
	temps   int
	stores  int
}

// Generate builds a deterministic loop spec from the seed and
// parameters. The result always passes ir.LoopSpec.Validate; Generate
// panics otherwise, because an invalid spec is a generator bug, not an
// input condition.
func Generate(seed int64, p Params) *ir.LoopSpec {
	if p.Ops < 1 {
		p.Ops = 1
	}
	if p.Step == 0 {
		p.Step = 1
	}
	g := &gen{rng: rand.New(rand.NewSource(seed)), p: p}

	spec := &ir.LoopSpec{
		Name:    fmt.Sprintf("fz%d", seed),
		Start:   p.Start,
		Step:    p.Step,
		TripVar: "n",
	}
	for i := 0; i < p.LiveIns; i++ {
		v := "c" + strconv.Itoa(i)
		spec.LiveIn = append(spec.LiveIn, v)
		g.defined = append(g.defined, v)
	}
	var accs []string
	for i := 0; i < p.Accs; i++ {
		v := "s" + strconv.Itoa(i)
		accs = append(accs, v)
		spec.LiveIn = append(spec.LiveIn, v)
		spec.LiveOut = append(spec.LiveOut, v)
		g.defined = append(g.defined, v)
	}

	// Reserve one update site per accumulator at a random position so
	// each carries a register recurrence across iterations.
	accAt := map[int]string{}
	for _, a := range accs {
		for {
			at := g.rng.Intn(p.Ops)
			if _, taken := accAt[at]; !taken {
				accAt[at] = a
				break
			}
		}
	}

	for i := 0; i < p.Ops; i++ {
		if a, ok := accAt[i]; ok {
			g.accumulate(a)
			continue
		}
		if g.p.Mem != MemNone && g.rng.Float64() < g.p.MemFrac {
			g.memOp()
		} else {
			g.aluOp()
		}
	}

	// Every loop must compute something observable; otherwise any
	// schedule is vacuously correct and the seed is wasted. Promote the
	// last temporary (or emit a store) when nothing escapes.
	if g.stores == 0 && len(accs) == 0 {
		if g.temps > 0 {
			last := "t" + strconv.Itoa(g.temps-1)
			spec.LiveOut = append(spec.LiveOut, last)
		} else {
			g.body = append(g.body, ir.BStore(ir.Aff("W0", 1, 0), g.pick()))
		}
	}
	spec.Body = g.body

	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("fuzzgen: generated invalid spec (seed %d): %v", seed, err))
	}
	return spec
}

// pick selects an operand: recent definitions with probability Density
// (chains), otherwise anything defined, occasionally the loop counter.
func (g *gen) pick() string {
	if g.rng.Float64() < 0.05 {
		return ir.CounterVar
	}
	if len(g.recent) > 0 && g.rng.Float64() < g.p.Density {
		return g.recent[len(g.recent)-1-g.rng.Intn(min(len(g.recent), 4))]
	}
	return g.defined[g.rng.Intn(len(g.defined))]
}

// def registers a fresh temporary as defined and recent.
func (g *gen) def() string {
	v := "t" + strconv.Itoa(g.temps)
	g.temps++
	g.defined = append(g.defined, v)
	g.recent = append(g.recent, v)
	return v
}

var aluKinds = []ir.Opcode{ir.Add, ir.Add, ir.Sub, ir.Mul, ir.Mul, ir.Div, ir.Copy}

func (g *gen) aluOp() {
	// Operands are picked before the destination is defined: an op must
	// not read its own fresh temporary.
	kind := aluKinds[g.rng.Intn(len(aluKinds))]
	a := g.pick()
	switch {
	case kind == ir.Copy:
		g.body = append(g.body, ir.BCopy(g.def(), a))
	case g.rng.Float64() < 0.2:
		imm := int64(g.rng.Intn(7)) - 2
		g.body = append(g.body, ir.BodyOp{Kind: kind, Dst: g.def(), A: a, Imm: imm, UseImm: true})
	default:
		b := g.pick()
		g.body = append(g.body, ir.BodyOp{Kind: kind, Dst: g.def(), A: a, B: b})
	}
}

// accumulate emits acc = acc <op> x — the loop-carried recurrence.
func (g *gen) accumulate(acc string) {
	kind := []ir.Opcode{ir.Add, ir.Add, ir.Sub, ir.Mul}[g.rng.Intn(4)]
	g.body = append(g.body, ir.BodyOp{Kind: kind, Dst: acc, A: acc, B: g.pick()})
	g.recent = append(g.recent, acc)
}

func (g *gen) memOp() {
	style := g.p.Mem
	if style == MemMixed {
		style = []MemStyle{MemStream, MemOverlap, MemIndirect}[g.rng.Intn(3)]
	}
	isStore := g.rng.Float64() < g.p.StoreFrac
	ref := g.ref(style, isStore)
	if isStore {
		g.body = append(g.body, ir.BStore(ref, g.pick()))
		g.stores++
	} else {
		g.body = append(g.body, ir.BLoad(g.def(), ref))
	}
}

// ref builds one memory reference in the requested style. Offsets are
// kept small and mostly non-negative so seeded array contents (rather
// than the zero default of untouched cells) dominate what the loop
// reads — unmapped cells read as zero on both sides of the oracle, so
// negative indices are safe, just less discriminating.
func (g *gen) ref(style MemStyle, isStore bool) ir.BodyRef {
	switch style {
	case MemOverlap:
		arr := []string{"M0", "M1"}[g.rng.Intn(2)]
		if isStore {
			// Stores near the current element so later iterations' loads
			// can observe them (RAW through memory) and earlier ones
			// conflict (WAR/WAW).
			return ir.Aff(arr, 1, int64(g.rng.Intn(2)))
		}
		switch g.rng.Intn(5) {
		case 0:
			return ir.Aff(arr, 2, int64(g.rng.Intn(3))) // strided gather
		case 1:
			return ir.Aff(arr, -1, 32) // reversed stream (LL4-shaped)
		default:
			return ir.Aff(arr, 1, int64(g.rng.Intn(5))-2)
		}
	case MemIndirect:
		if g.idxVar == "" {
			g.idxVar = g.def()
			g.body = append(g.body, ir.BLoad(g.idxVar, ir.Aff("IX", 1, 0)))
		}
		return ir.Ind("P", g.idxVar, int64(g.rng.Intn(3)))
	default: // MemStream
		if isStore {
			return ir.Aff([]string{"W0", "W1"}[g.rng.Intn(2)], 1, 0)
		}
		arr := []string{"R0", "R1", "R2"}[g.rng.Intn(3)]
		if g.rng.Intn(6) == 0 {
			return ir.Aff(arr, 0, int64(g.rng.Intn(4))) // loop-invariant cell
		}
		return ir.Aff(arr, 1, int64(g.rng.Intn(9)))
	}
}

// Workload builds the deterministic execution inputs for a spec: one
// small non-zero value per live-in scalar and one seeded array per
// referenced array name. It depends only on the spec's fingerprint, so
// a corpus entry parsed back from text gets exactly the workload the
// failure was found with — no side-channel seed file needed.
//
// ArraySize bounds the initialized prefix of every array; cells outside
// it (including negative indices) read as zero in the simulator, which
// is deterministic on both sides of the differential oracle.
const ArraySize = 256

// Workload returns (vars, arrays) for the spec. The trip variable is
// deliberately absent from vars: the oracle sets it per trial.
func Workload(spec *ir.LoopSpec) (map[string]int64, map[string][]int64) {
	seed := int64(0)
	for _, c := range spec.Fingerprint() {
		seed = seed*31 + int64(c)
	}
	x := seed
	next := func(mod int64) int64 {
		x = (x*1103515245 + 12345) % 2147483648
		if x < 0 {
			x = -x
		}
		return x%mod + 1
	}
	vars := map[string]int64{}
	for _, v := range spec.LiveIn {
		vars[v] = next(7)
	}
	arrays := map[string][]int64{}
	for _, op := range spec.Body {
		if op.Mem.Array == "" {
			continue
		}
		if _, ok := arrays[op.Mem.Array]; ok {
			continue
		}
		a := make([]int64, ArraySize)
		for i := range a {
			a[i] = next(7)
		}
		arrays[op.Mem.Array] = a
	}
	return vars, arrays
}

package ir

import (
	"fmt"
	"strings"
)

// NoIter marks operations that do not belong to a loop iteration
// (pre-loop code, epilogue copies, straight-line programs).
const NoIter = -1

// NoIndex marks operations outside the dense index space: frozen drain
// clones and epilogue copies, which priority tables and scheduler
// bitsets never address.
const NoIndex = -1

// Op is a single operation instance. Instances are identified by ID;
// clones created by node splitting share the same Origin so pattern
// detection and the Gapless-move test can recognize "the same operation
// from the same iteration" across copies.
//
// Operand conventions by Kind:
//
//	Const: Dst = Imm
//	Copy:  Dst = Src[0]
//	Add..Div: Dst = Src[0] op Src[1]   (or op Imm when BImm is set)
//	Load:  Dst = memory[Mem]
//	Store: memory[Mem] = Src[0]
//	CJ:    branch on Src[0] Rel Src[1] (or Rel Imm when BImm is set)
type Op struct {
	ID     int
	Origin int // position of the operation in the original body; stable across clones
	Iter   int // iteration the op belongs to, or NoIter

	// Index is the op's position in the dense index space of its
	// analyzed program: deps.Build assigns Index = i over its op slice,
	// and every index-addressed structure (the DDG's chain and
	// dependent tables, the scheduler's bitsets) is keyed by it. Stable
	// under graph.Clone (the clone keeps its original's priority);
	// NoIndex on frozen clones, which are new operations outside any
	// analyzed program. A zero Index is only meaningful for ops that
	// went through deps.Build — index-addressed lookups verify
	// identity before trusting it.
	Index int

	Kind Opcode
	Dst  Reg
	Src  [2]Reg
	Imm  int64
	BImm bool // second operand is Imm rather than Src[1]
	Mem  MemRef
	Rel  Relation

	// Frozen operations never move: drain-side clones produced by
	// move-cj node splitting and live-out epilogue copies. They are
	// still executed by the simulator.
	Frozen bool

	// loc is the op's current placement, owned and interpreted solely
	// by package graph (held as any to avoid an import cycle). It is the
	// only record of where the op sits: the scheduler's hottest query —
	// "which vertex holds this op" — reads a cache line the caller
	// already touched. Graph mutators set and clear it; no other
	// package may touch it.
	loc any
}

// Placement returns the opaque placement slot maintained by package
// graph. Use Graph.Where for the public placement query.
func (o *Op) Placement() any { return o.loc }

// SetPlacement stores the opaque placement slot. Package graph only.
func (o *Op) SetPlacement(p any) { o.loc = p }

// IsBranch reports whether the op is a conditional jump.
func (o *Op) IsBranch() bool { return o.Kind == CJ }

// IsStore reports whether the op writes memory. Stores are never
// speculated: they may not be hoisted above a conditional jump.
func (o *Op) IsStore() bool { return o.Kind == Store }

// IsLoad reports whether the op reads memory.
func (o *Op) IsLoad() bool { return o.Kind == Load }

// IsCopy reports whether the op is a register copy.
func (o *Op) IsCopy() bool { return o.Kind == Copy }

// Def returns the register the op writes, or NoReg.
func (o *Op) Def() Reg {
	switch o.Kind {
	case Store, CJ, Nop:
		return NoReg
	}
	return o.Dst
}

// Uses appends the registers the op reads to dst and returns it.
// Operands are fetched in parallel at instruction entry, so the order is
// irrelevant; Uses exists to avoid allocating in hot dependence tests.
func (o *Op) Uses(dst []Reg) []Reg {
	switch o.Kind {
	case Nop, Const:
	case Copy:
		dst = append(dst, o.Src[0])
	case Add, Sub, Mul, Div:
		dst = append(dst, o.Src[0])
		if !o.BImm {
			dst = append(dst, o.Src[1])
		}
	case Load:
		if o.Mem.IndexReg != NoReg {
			dst = append(dst, o.Mem.IndexReg)
		}
	case Store:
		dst = append(dst, o.Src[0])
		if o.Mem.IndexReg != NoReg {
			dst = append(dst, o.Mem.IndexReg)
		}
	case CJ:
		dst = append(dst, o.Src[0])
		if !o.BImm {
			dst = append(dst, o.Src[1])
		}
	}
	return dst
}

// ReadsReg reports whether the op reads register r.
func (o *Op) ReadsReg(r Reg) bool {
	if r == NoReg {
		return false
	}
	var buf [3]Reg
	for _, u := range o.Uses(buf[:0]) {
		if u == r {
			return true
		}
	}
	return false
}

// ReplaceUse substitutes register to for every read of from. Used by
// copy propagation ("change the use of B into a use of X", paper
// section 2).
func (o *Op) ReplaceUse(from, to Reg) {
	if from == NoReg {
		return
	}
	switch o.Kind {
	case Copy:
		if o.Src[0] == from {
			o.Src[0] = to
		}
	case Add, Sub, Mul, Div, CJ:
		if o.Src[0] == from {
			o.Src[0] = to
		}
		if !o.BImm && o.Src[1] == from {
			o.Src[1] = to
		}
	case Load:
		if o.Mem.IndexReg == from {
			o.Mem.IndexReg = to
		}
	case Store:
		if o.Src[0] == from {
			o.Src[0] = to
		}
		if o.Mem.IndexReg == from {
			o.Mem.IndexReg = to
		}
	}
}

// Clone returns a copy of the op with a new instance ID and the Frozen
// flag set as given. Origin and Iter are preserved; the clone is a new
// operation outside the dense index space (Index = NoIndex), so
// index-addressed dependence data never aliases it with its origin.
func (o *Op) Clone(id int, frozen bool) *Op {
	c := *o
	c.ID = id
	c.Index = NoIndex
	c.Frozen = frozen || o.Frozen
	c.loc = nil // the clone starts unplaced
	return &c
}

// String renders the op in a compact three-address form.
func (o *Op) String() string {
	var b strings.Builder
	switch o.Kind {
	case Nop:
		b.WriteString("nop")
	case Const:
		fmt.Fprintf(&b, "r%d = %d", o.Dst, o.Imm)
	case Copy:
		fmt.Fprintf(&b, "r%d = r%d", o.Dst, o.Src[0])
	case Add, Sub, Mul, Div:
		if o.BImm {
			fmt.Fprintf(&b, "r%d = %s r%d, %d", o.Dst, o.Kind, o.Src[0], o.Imm)
		} else {
			fmt.Fprintf(&b, "r%d = %s r%d, r%d", o.Dst, o.Kind, o.Src[0], o.Src[1])
		}
	case Load:
		fmt.Fprintf(&b, "r%d = load %s", o.Dst, o.Mem)
	case Store:
		fmt.Fprintf(&b, "store %s = r%d", o.Mem, o.Src[0])
	case CJ:
		if o.BImm {
			fmt.Fprintf(&b, "cj r%d %s %d", o.Src[0], o.Rel, o.Imm)
		} else {
			fmt.Fprintf(&b, "cj r%d %s r%d", o.Src[0], o.Rel, o.Src[1])
		}
	default:
		fmt.Fprintf(&b, "%s?", o.Kind)
	}
	if o.Iter != NoIter {
		fmt.Fprintf(&b, " {i%d#%d}", o.Iter, o.Origin)
	}
	if o.Frozen {
		b.WriteString(" [frozen]")
	}
	return b.String()
}

// Eval computes the value the op produces given an operand reader.
// get(r) must return the value of register r at instruction entry and
// mem(ref) the memory value at instruction entry. Branches and stores
// have no register result; Eval returns 0 for them. Division by zero
// yields 0 (the simulator's documented convention, which makes
// speculative division safe).
func (o *Op) Eval(get func(Reg) int64, mem func(MemRef) int64) int64 {
	b := func() int64 {
		if o.BImm {
			return o.Imm
		}
		return get(o.Src[1])
	}
	switch o.Kind {
	case Const:
		return o.Imm
	case Copy:
		return get(o.Src[0])
	case Add:
		return get(o.Src[0]) + b()
	case Sub:
		return get(o.Src[0]) - b()
	case Mul:
		return get(o.Src[0]) * b()
	case Div:
		d := b()
		if d == 0 {
			return 0
		}
		return get(o.Src[0]) / d
	case Load:
		return mem(o.Mem)
	}
	return 0
}

// CondHolds evaluates a CJ op's condition with the given register reader.
func (o *Op) CondHolds(get func(Reg) int64) bool {
	b := o.Imm
	if !o.BImm {
		b = get(o.Src[1])
	}
	return o.Rel.Eval(get(o.Src[0]), b)
}

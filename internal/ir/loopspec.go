package ir

import "fmt"

// BodyRef is a memory address used by a loop-body operation before
// unwinding: the affine element Array[KCoef*k + Off] of the loop counter
// k, or — when IndexVar is set — the indirect element
// Array[value(IndexVar) + Off].
type BodyRef struct {
	Array    string
	KCoef    int64
	Off      int64
	IndexVar string
}

// Aff builds an affine reference Array[KCoef*k+Off].
func Aff(array string, kcoef, off int64) BodyRef {
	return BodyRef{Array: array, KCoef: kcoef, Off: off}
}

// Ind builds an indirect reference Array[value(indexVar)+off].
func Ind(array, indexVar string, off int64) BodyRef {
	return BodyRef{Array: array, IndexVar: indexVar, Off: off}
}

// BodyOp is one operation of a loop body, written over named variables.
// The unwinder renames variables to fresh registers per iteration
// (SSA-style), which removes all register anti- and output dependencies
// across iterations exactly as the paper's renaming would.
type BodyOp struct {
	Kind   Opcode
	Dst    string
	A, B   string
	Imm    int64
	UseImm bool
	Mem    BodyRef
}

// Constructors for the common body-op shapes. They keep the kernel
// definitions in internal/livermore close to the Fortran source.

// BAdd returns dst = a + b.
func BAdd(dst, a, b string) BodyOp { return BodyOp{Kind: Add, Dst: dst, A: a, B: b} }

// BSub returns dst = a - b.
func BSub(dst, a, b string) BodyOp { return BodyOp{Kind: Sub, Dst: dst, A: a, B: b} }

// BMul returns dst = a * b.
func BMul(dst, a, b string) BodyOp { return BodyOp{Kind: Mul, Dst: dst, A: a, B: b} }

// BDiv returns dst = a / b (0 when b is 0).
func BDiv(dst, a, b string) BodyOp { return BodyOp{Kind: Div, Dst: dst, A: a, B: b} }

// BAddI returns dst = a + imm.
func BAddI(dst, a string, imm int64) BodyOp {
	return BodyOp{Kind: Add, Dst: dst, A: a, Imm: imm, UseImm: true}
}

// BMulI returns dst = a * imm.
func BMulI(dst, a string, imm int64) BodyOp {
	return BodyOp{Kind: Mul, Dst: dst, A: a, Imm: imm, UseImm: true}
}

// BCopy returns dst = a.
func BCopy(dst, a string) BodyOp { return BodyOp{Kind: Copy, Dst: dst, A: a} }

// BLoad returns dst = load mem.
func BLoad(dst string, mem BodyRef) BodyOp { return BodyOp{Kind: Load, Dst: dst, Mem: mem} }

// BStore returns store mem = a.
func BStore(mem BodyRef, a string) BodyOp { return BodyOp{Kind: Store, A: a, Mem: mem} }

// LoopSpec describes an innermost loop before unwinding: the body in
// original sequential order (one operation per VLIW instruction, matching
// the paper's "sequential VLIW program graph wherein each node contains a
// single intermediate language statement"), the counter, and the
// live-in/live-out interface.
//
// The unwinder appends the loop control to each iteration: the counter
// increment k = k + Step and the conditional jump that continues while
// k < value(TripVar). These two control operations count toward the
// sequential cost exactly like body operations.
type LoopSpec struct {
	Name string
	Body []BodyOp

	// Counter: k starts at Start and advances by Step each iteration.
	Start int64
	Step  int64

	// TripVar names the live-in variable holding the loop bound.
	TripVar string

	// LiveIn lists variables (loop-invariant scalars and initial values
	// of carried accumulators) that must be defined before the loop.
	// TripVar is implicitly live-in.
	LiveIn []string

	// LiveOut lists scalar variables whose final value is observable
	// after the loop (accumulators such as the inner product q of LL3).
	// Values stored to memory are always observable.
	LiveOut []string
}

// CounterVar is the reserved name of the loop counter.
const CounterVar = "k"

// SeqOpsPerIter returns the sequential cost of one iteration: body
// operations plus the two loop-control operations.
func (s *LoopSpec) SeqOpsPerIter() int { return len(s.Body) + 2 }

// Validate checks the spec for authoring mistakes: uses of variables that
// are neither live-in, the counter, nor defined earlier in the body, and
// redefinition of live-in coefficients that are also read later (which
// would make the carried-value semantics ambiguous).
func (s *LoopSpec) Validate() error {
	if len(s.Body) == 0 {
		return fmt.Errorf("loop %s: empty body", s.Name)
	}
	if s.Step == 0 {
		return fmt.Errorf("loop %s: zero step", s.Name)
	}
	if s.TripVar == "" {
		return fmt.Errorf("loop %s: missing TripVar", s.Name)
	}
	defined := map[string]bool{CounterVar: true, s.TripVar: true}
	for _, v := range s.LiveIn {
		defined[v] = true
	}
	use := func(i int, v string) error {
		if v == "" {
			return nil
		}
		if !defined[v] {
			return fmt.Errorf("loop %s: body op %d uses undefined variable %q", s.Name, i, v)
		}
		return nil
	}
	for i, op := range s.Body {
		if err := use(i, op.A); err != nil {
			return err
		}
		if !op.UseImm {
			if err := use(i, op.B); err != nil {
				return err
			}
		}
		if op.Mem.IndexVar != "" {
			if err := use(i, op.Mem.IndexVar); err != nil {
				return err
			}
		}
		if op.Dst != "" {
			if op.Dst == CounterVar {
				return fmt.Errorf("loop %s: body op %d writes the loop counter", s.Name, i)
			}
			defined[op.Dst] = true
		}
	}
	for _, v := range s.LiveOut {
		if !defined[v] {
			return fmt.Errorf("loop %s: live-out %q never defined", s.Name, v)
		}
	}
	return nil
}

// Clone returns an independent deep copy of the spec: mutating the
// copy's body or interface slices never affects the original. Specs are
// treated as read-only throughout the scheduling stack, so Clone exists
// for the few writers — the fuzz minimizer shrinks candidate copies
// while the failing original stays intact for reporting.
func (s *LoopSpec) Clone() *LoopSpec {
	c := *s
	c.Body = append([]BodyOp(nil), s.Body...)
	c.LiveIn = append([]string(nil), s.LiveIn...)
	c.LiveOut = append([]string(nil), s.LiveOut...)
	return &c
}

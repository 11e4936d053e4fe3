// Package sim executes VLIW program graphs under the IBM VLIW execution
// semantics of the paper's section 2:
//
//  1. operands of every operation are fetched at instruction entry;
//  2. results of all operations are computed;
//  3. only the results computed along the path selected by the
//     conditional jumps are stored;
//  4. the next instruction is the one reached through the selected
//     branches.
//
// The simulator is the ground truth for correctness: every scheduling
// transformation in this repository is validated by executing the
// program before and after and comparing observable state. One node is
// one cycle, matching the paper's unit-latency assumption.
package sim

import (
	"errors"
	"fmt"
	"maps"

	"repro/internal/graph"
	"repro/internal/ir"
)

// ErrCycleBudget is wrapped into Run's budget error, so callers — the
// fuzz harness classifying runaway schedules as livelocks rather than
// mismatches — can test for it with errors.Is instead of string
// matching.
var ErrCycleBudget = errors.New("exceeded cycle budget")

// Key addresses one memory cell.
type Key struct {
	Arr ir.Array
	Idx int64
}

// State is the machine state: registers and memory. Missing entries read
// as zero.
type State struct {
	Regs map[ir.Reg]int64
	Mem  map[Key]int64
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Regs: make(map[ir.Reg]int64), Mem: make(map[Key]int64)}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	return &State{Regs: maps.Clone(s.Regs), Mem: maps.Clone(s.Mem)}
}

// SetReg writes a register.
func (s *State) SetReg(r ir.Reg, v int64) { s.Regs[r] = v }

// Reg reads a register (0 if never written).
func (s *State) Reg(r ir.Reg) int64 { return s.Regs[r] }

// SetMem writes one memory cell.
func (s *State) SetMem(arr ir.Array, idx, v int64) { s.Mem[Key{arr, idx}] = v }

// SetArray initializes arr[0..len(vals)) from a slice.
func (s *State) SetArray(arr ir.Array, vals []int64) {
	for i, v := range vals {
		s.SetMem(arr, int64(i), v)
	}
}

func (s *State) addr(m ir.MemRef) Key {
	idx := m.Index
	if m.IndexReg != ir.NoReg {
		idx += s.Reg(m.IndexReg)
	}
	return Key{m.Array, idx}
}

// Result is the outcome of a run.
type Result struct {
	Cycles int
	State  *State
}

// Run executes the graph from its entry until a nil successor is
// reached, for at most maxCycles instructions. It reads init and never
// writes it, so runs may share one initial state.
func Run(g *graph.Graph, init *State, maxCycles int) (*Result, error) {
	st := init.Clone()
	res := &Result{State: st}
	type write struct {
		reg ir.Reg
		mem Key
		val int64
		st  bool
	}
	var writes []write
	for n := g.Entry; n != nil; {
		if res.Cycles >= maxCycles {
			label := g.Label
			if label == "" {
				label = "unlabeled graph"
			}
			return nil, fmt.Errorf("sim: %s: %w of %d cycles at n%d", label, ErrCycleBudget, maxCycles, n.ID)
		}
		res.Cycles++

		// All fetches use entry state; collect the selected path's
		// writes and apply them after the whole instruction.
		writes = writes[:0]
		v := n.Root
		var next *graph.Node
		for {
			for _, op := range v.Ops {
				switch {
				case op.IsStore():
					writes = append(writes, write{mem: st.addr(op.Mem), val: st.Reg(op.Src[0]), st: true})
				case op.Def() != ir.NoReg:
					val := op.Eval(st.Reg, func(m ir.MemRef) int64 { return st.Mem[st.addr(m)] })
					writes = append(writes, write{reg: op.Def(), val: val})
				}
			}
			if v.IsLeaf() {
				next = v.Succ
				break
			}
			if v.CJ.CondHolds(st.Reg) {
				v = v.True
			} else {
				v = v.False
			}
		}
		for _, w := range writes {
			if w.st {
				st.Mem[w.mem] = w.val
			} else {
				st.Regs[w.reg] = w.val
			}
		}
		n = next
	}
	return res, nil
}

// EquivalentMem reports whether two states agree on all memory cells
// (missing cells read as zero): a's cells against b, then the cells only
// b holds.
func EquivalentMem(a, b *State) error {
	for k, va := range a.Mem {
		if vb := b.Mem[k]; va != vb {
			return memDiff(k, va, vb)
		}
	}
	for k, vb := range b.Mem {
		if _, ok := a.Mem[k]; !ok && vb != 0 {
			return memDiff(k, 0, vb)
		}
	}
	return nil
}

func memDiff(k Key, a, b int64) error {
	return fmt.Errorf("mem[%d,%d]: %d vs %d", k.Arr, k.Idx, a, b)
}

// Equivalent reports whether two states agree on all memory and on the
// given observable registers.
func Equivalent(a, b *State, regs []ir.Reg) error {
	if err := EquivalentMem(a, b); err != nil {
		return err
	}
	for _, r := range regs {
		if a.Reg(r) != b.Reg(r) {
			return fmt.Errorf("r%d: %d vs %d", r, a.Reg(r), b.Reg(r))
		}
	}
	return nil
}

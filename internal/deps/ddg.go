package deps

import (
	"slices"
	"sort"

	"repro/internal/ir"
)

// DDG is the dependence digest of an operation sequence (usually the
// unwound loop, in original sequential order): for every op, the two
// numbers the section 3.4 priority ranks by — the longest chain of
// serializing dependences rooted at it and its count of direct
// dependents. Pairwise questions go to the package-level Serializes and
// Blocks tests, which read the live operands. Read-only after Build and
// safe to share across goroutines.
type DDG struct {
	Ops []*ir.Op

	chain      []int32
	dependents []int32
}

// Build computes the DDG for ops, which must be in original sequential
// order, assigning ops[i].Index = i. Only serializing dependences
// (register true deps and memory conflicts) count: the unwinder emits
// SSA-renamed code, so anti/output register dependences cannot occur,
// and they are exactly the dependences renaming would remove anyway.
//
// The successors of op i are the later ops j with Serializes(i, j). One
// backward pass finds them without enumerating them: per register, it
// keeps the reader count and the longest chain among the ops already
// visited (all later than i), and it tests op i against the later
// memory ops directly. A memory successor that also reads i's
// destination is a register successor already, and is counted once.
// O(n + mem²), with the result equal to the pairwise definition
// (TestCSRMatchesNaiveEdges).
func Build(ops []*ir.Op) *DDG {
	n := len(ops)
	maxReg := ir.NoReg
	var useBuf [3]ir.Reg
	var memIdx []int32
	for i, op := range ops {
		op.Index = i
		maxReg = max(maxReg, op.Def())
		for _, r := range op.Uses(useBuf[:0]) {
			maxReg = max(maxReg, r)
		}
		if !op.Mem.IsZero() {
			memIdx = append(memIdx, int32(i))
		}
	}

	d := &DDG{Ops: ops, chain: make([]int32, n), dependents: make([]int32, n)}
	// readers[r] counts the visited ops that read r; readChain[r] is the
	// longest chain among them.
	readers := make([]int32, maxReg+1)
	readChain := make([]int32, maxReg+1)
	mem := len(memIdx)
	for i := n - 1; i >= 0; i-- {
		op := ops[i]
		def := op.Def()
		var best, count int32
		if def != ir.NoReg {
			best, count = readChain[def], readers[def]
		}
		if mem > 0 && memIdx[mem-1] == int32(i) {
			mem--
			for _, j := range memIdx[mem+1:] {
				b := ops[j]
				if !MemDep(op, b) || b.ReadsReg(def) {
					continue
				}
				count++
				best = max(best, d.chain[j])
			}
		}
		d.chain[i] = best + 1
		d.dependents[i] = count
		uses := op.Uses(useBuf[:0])
		for k, r := range uses {
			if r == ir.NoReg || slices.Contains(uses[:k], r) {
				continue
			}
			readers[r]++
			readChain[r] = max(readChain[r], d.chain[i])
		}
	}
	return d
}

// indexed reports whether op is one of the analyzed ops: a valid dense
// index that still identifies this very op (frozen clones and ops from
// other programs fail the identity check).
func (d *DDG) indexed(op *ir.Op) (int, bool) {
	i := op.Index
	if uint(i) >= uint(len(d.Ops)) || d.Ops[i] != op {
		return 0, false
	}
	return i, true
}

// ChainLen returns the length (in operations, including op itself) of
// the longest dependence chain rooted at op, or 0 for ops outside the
// analyzed program. Build-time snapshot: operand rewrites after Build
// do not change it.
func (d *DDG) ChainLen(op *ir.Op) int {
	if i, ok := d.indexed(op); ok {
		return int(d.chain[i])
	}
	return 0
}

// Dependents returns the number of direct dependents of op, or 0 for
// ops outside the analyzed program.
func (d *DDG) Dependents(op *ir.Op) int {
	if i, ok := d.indexed(op); ok {
		return int(d.dependents[i])
	}
	return 0
}

// Priority is the section 3.4 operation ordering: operation A precedes
// operation B if A's iteration is earlier (the Perfect Pipelining
// stipulation), then if the longest dependence chain rooted at A is
// longer, then if A has more dependents, then by original program order
// as a deterministic tiebreak.
type Priority struct {
	d *DDG
}

// NewPriority returns the ranking over the DDG's operations.
func NewPriority(d *DDG) *Priority { return &Priority{d: d} }

// Before reports whether a has strictly higher priority than b. The
// ID tiebreak makes it a strict total order, so Rank is a function of
// the op set alone, independent of input order.
func (p *Priority) Before(a, b *ir.Op) bool {
	if a.Iter != b.Iter {
		// NoIter (= -1) pre-loop code naturally ranks highest.
		return a.Iter < b.Iter
	}
	ca, cb := p.d.ChainLen(a), p.d.ChainLen(b)
	if ca != cb {
		return ca > cb
	}
	da, db := p.d.Dependents(a), p.d.Dependents(b)
	if da != db {
		return da > db
	}
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	return a.ID < b.ID
}

// Rank sorts ops by descending priority (highest first), stably and
// deterministically. Ranks are static for a schedule's lifetime: the
// core scheduler freezes this order into its candidate selectors
// (rank-indexed bitsets, DESIGN.md §6), so priority must never depend
// on graph placement — only on the dependence structure, which the
// scheduler's semantics-preserving moves keep fixed.
func (p *Priority) Rank(ops []*ir.Op) {
	sort.SliceStable(ops, func(i, j int) bool { return p.Before(ops[i], ops[j]) })
}

package core

import (
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/ps"
)

// memoEntry is one generation-stamped gapMemo slot for a Gapless-move
// verdict. The stamp is the graph mutation counter (graph.Version):
// probes never mutate the graph, so every verdict computed at one
// version stays exact until the next committed transformation bumps it.
// See DESIGN.md §2.2 for the invalidation contract. Packed ver<<2 |
// verdict into one word; the zero value means "unknown", and stored
// entries always carry a nonzero verdict.
type memoEntry uint64

func makeMemoEntry(ver uint64, holds bool) memoEntry {
	e := memoEntry(ver<<2) | 2 // verdict 2 = fails
	if holds {
		e = memoEntry(ver<<2) | 1 // verdict 1 = holds
	}
	return e
}

func (e memoEntry) ver() uint64 { return uint64(e) >> 2 }
func (e memoEntry) holds() bool { return uint64(e)&3 == 1 }

// gaplessMove is the section 3.3 Gapless-move(From, To, Op) test: it
// reports whether moving op up out of node from can be done without
// creating a permanent gap in op's iteration. Conditions, in the paper's
// order:
//
//  1. op is the only operation scheduled at from — the node is deleted
//     by the move, so no row can gap;
//  2. another operation from op's iteration stays at from;
//  3. op is the last operation of its iteration at or below from;
//  4. some successor S of from holds an operation X of the same
//     iteration that would be moveable from S into from once op has
//     left, and Gapless-move(S, from, X) holds recursively — the
//     temporary gap op leaves is certain to be fillable.
//
// Every caller passes a pool op (op.Index addresses gapMemo) and its
// home node as from, so the verdict is a function of op and the graph
// and is memoized by op index under the graph version. The recursion
// ends: each level moves to a strictly lower node (a successor; every
// node has one incoming edge, so no path revisits one) and so to a
// different op of the same iteration, and the memo evaluates each op at
// most once per graph version.
func (s *scheduler) gaplessMove(from *graph.Node, op *ir.Op) bool {
	ver := s.ctx.G.Version()
	if e := s.gapMemo[op.Index]; e != 0 && e.ver() == ver {
		return e.holds()
	}
	ok := s.gaplessEval(from, op)
	s.gapMemo[op.Index] = makeMemoEntry(ver, ok)
	return ok
}

func (s *scheduler) gaplessEval(from *graph.Node, op *ir.Op) bool {
	// Condition 1.
	if from.OpCount()+from.BranchCount() == 1 {
		return true
	}
	// Condition 2.
	if from.IterCount(op.Iter) >= 2 {
		return true
	}
	// Condition 3.
	if s.isLastOfIter(from, op) {
		return true
	}
	// Condition 4.
	found := false
	from.VisitSuccessors(func(succ *graph.Node) bool {
		if succ.Drain || !s.findFiller(succ, op) {
			return true
		}
		found = true
		return false
	})
	return found
}

// findFiller looks in succ for an op X of op's iteration that can fill
// the gap op would leave behind. Instead of walking succ's instruction
// tree it scans the per-iteration op list behind an O(1) IterCount gate
// — the gapless search is localized, and an iteration holds only a
// body's worth of operations.
func (s *scheduler) findFiller(succ *graph.Node, op *ir.Op) bool {
	if succ.IterCount(op.Iter) == 0 {
		return false
	}
	g := s.ctx.G
	for _, x := range s.byIter[op.Iter+1] {
		if x == op || x.Frozen || g.NodeOf(x) != succ {
			continue
		}
		if s.canFill(x, op) && s.gaplessMove(succ, x) {
			return true
		}
	}
	return false
}

// canFill reports whether x could move one node up, assuming `leaving`
// has already vacated the target. It is not memoized: findFiller only
// probes (x, leaving) from inside gaplessEval(from, leaving), which runs
// once per leaving op and graph version (DESIGN.md §2.2). An x buried
// under a branch inside its node is treated as fillable when it can
// hoist (it will surface and then move); this slight optimism is
// documented in DESIGN.md §2.1.
func (s *scheduler) canFill(x, leaving *ir.Op) bool {
	return s.ctx.CanStepUp(x, leaving).Kind == ps.BlockNone
}

// iterFrontier caches, per iteration, the two highest node positions
// holding schedulable ops of that iteration (with the op attaining the
// maximum), stamped by graph version. Recomputed at most once per
// iteration per graph mutation; every further isLastOfIter probe in the
// condition-4 recursion is O(1).
type iterFrontier struct {
	ver  uint64
	n    int     // schedulable ops of the iteration in non-drain nodes
	op1  *ir.Op  // an op attaining max1
	max1 float64 // highest home position
	max2 float64 // highest home position over ops other than op1
}

func (s *scheduler) frontier(iter int) *iterFrontier {
	f := &s.frontiers[iter+1]
	g := s.ctx.G
	if f.ver == g.Version() {
		return f
	}
	*f = iterFrontier{ver: g.Version()}
	for _, op := range s.byIter[iter+1] {
		if op.Frozen {
			continue
		}
		home := g.NodeOf(op)
		if home == nil || home.Drain {
			continue
		}
		p := home.Pos()
		f.n++
		switch {
		case f.op1 == nil:
			f.op1, f.max1 = op, p
		case p > f.max1:
			f.max2 = f.max1
			f.op1, f.max1 = op, p
		case f.n == 2 || p > f.max2:
			f.max2 = p
		}
	}
	return f
}

// isLastOfIter reports whether no schedulable operation of op's
// iteration exists strictly below from. Main-chain nodes are totally
// ordered by their position keys, so the cached per-iteration max-Pos
// frontier answers this in O(1) amortized instead of O(body) per probe.
func (s *scheduler) isLastOfIter(from *graph.Node, op *ir.Op) bool {
	f := s.frontier(op.Iter)
	if f.n == 0 || (f.n == 1 && f.op1 == op) {
		return true
	}
	m := f.max1
	if f.op1 == op {
		m = f.max2
	}
	return m <= from.Pos()
}

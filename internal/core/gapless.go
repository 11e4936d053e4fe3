package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/ps"
)

// memoEntry is one gapMemo slot: a Gapless-move verdict, the graph
// version it was computed or last confirmed at, and its read depth —
// how many successor steps below the op's home the evaluation read. An
// entry from an older version is still exact while the home and every
// non-drain node within its read depth are untouched since its version
// (graph.Node.Touched; DESIGN.md §2.2). Packed ver<<8 | depth<<2 |
// verdict into one word; the zero value means "unknown", and stored
// entries always carry a nonzero verdict.
type memoEntry uint64

// anyDepth is the read depth of a verdict that read state no change
// stamp vouches for: a hoist probe whose sibling subtree reaches a node
// that is not a drain. Such an entry holds for its own version only.
// Deeper read depths saturate to it.
const anyDepth = 63

func makeMemoEntry(ver uint64, depth int, holds bool) memoEntry {
	verdict := memoEntry(2) // fails
	if holds {
		verdict = 1
	}
	return memoEntry(ver<<8) | memoEntry(min(depth, anyDepth))<<2 | verdict
}

func (e memoEntry) ver() uint64 { return uint64(e) >> 8 }
func (e memoEntry) depth() int  { return int(e>>2) & anyDepth }
func (e memoEntry) holds() bool { return e&3 == 1 }

// restamp moves e to version ver, keeping its depth and verdict.
func (e memoEntry) restamp(ver uint64) memoEntry { return memoEntry(ver<<8) | e&0xff }

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
// and is memoized by op index, beside its witness (s.witness): the
// rank+1 of the filler that proved condition 4, 0 otherwise. A verdict
// from an older graph version is served while unchangedSince vouches
// for everything it read; under Options.CrossCheck every such verdict
// is recomputed, and a disagreement in verdict or witness panics. The
// recursion ends: each level moves to a strictly lower node (a
// successor; every node has one incoming edge, so no path revisits
// one) and so to a different op of the same iteration, and the memo
// evaluates each op at most once per graph version.
func (s *scheduler) gaplessMove(from *graph.Node, op *ir.Op) bool {
	ver := s.ctx.G.Version()
	e := s.gapMemo[op.Index]
	switch {
	case e == 0:
	case e.ver() == ver:
		return e.holds()
	case unchangedSince(from, e.depth(), e.ver()):
		s.gapMemo[op.Index] = e.restamp(ver)
		if s.opts.CrossCheck {
			if ok, _, w := s.gaplessEval(from, op); ok != e.holds() || w != s.witness[op.Index] {
				panic(fmt.Sprintf("core: Gapless-move verdict for %v at n%d kept from version %d (read depth %d) is %v with witness %d, a recompute says %v with witness %d",
					op, from.ID, e.ver(), e.depth(), e.holds(), s.witness[op.Index], ok, w))
			}
		}
		return e.holds()
	}
	ok, depth, w := s.gaplessEval(from, op)
	s.gapMemo[op.Index] = makeMemoEntry(ver, depth, ok)
	s.witness[op.Index] = w
	return ok
}

// unchangedSince reports whether n and every non-drain node within
// depth successor steps below it are untouched since version ver: what
// a verdict of that read depth, computed at n at ver, read is unchanged.
// Drain successors need no stamp. The search reads only their Drain
// flag, set at creation, and a hoist probe counts on drains only when a
// drain is all it reaches; a drain is frozen once the move-cj that built
// it ends, and a new edge to one touches the node holding the leaf.
func unchangedSince(n *graph.Node, depth int, ver uint64) bool {
	if n.Touched() > ver || depth == anyDepth {
		return false
	}
	if depth == 0 {
		return true
	}
	ok := true
	n.VisitSuccessors(func(succ *graph.Node) bool {
		ok = succ.Drain || unchangedSince(succ, depth-1, ver)
		return ok
	})
	return ok
}

// gaplessEval evaluates the four conditions and returns the verdict
// with its read depth and its witness. Conditions 1–3 read only from
// (depth 0): condition 3 compares from with the ops of op's iteration
// below it, which sit on the one chain of non-drain nodes and move one
// edge up it at a time, so none passes from without entering it.
// Condition 4 reads one level more than the filler verdicts it
// consulted, and its witness is the rank+1 of the filler it accepted.
func (s *scheduler) gaplessEval(from *graph.Node, op *ir.Op) (bool, int, int32) {
	if from.OpCount()+from.BranchCount() == 1 || from.IterCount(op.Iter) >= 2 || s.isLastOfIter(from, op) {
		return true, 0, 0
	}
	var filler *ir.Op
	depth := 0
	from.VisitSuccessors(func(succ *graph.Node) bool {
		if succ.Drain {
			return true
		}
		x, d := s.findFiller(succ, op)
		filler, depth = x, max(depth, 1+d)
		return x == nil
	})
	if filler == nil {
		return false, depth, 0
	}
	return true, depth, s.rankOf[filler.Index] + 1
}

// findFiller looks in succ for an op X of op's iteration that can fill
// the gap op would leave behind, and returns the first one found, or
// nil, with its read depth below succ: the deepest of the fillers it
// probed, the one returned included, so a verdict kept by its read
// depth keeps its witness too. Instead of walking succ's instruction
// tree it scans the per-iteration op list behind an O(1) IterCount
// gate — the gapless search is localized, and an iteration holds only
// a body's worth of operations.
func (s *scheduler) findFiller(succ *graph.Node, op *ir.Op) (*ir.Op, int) {
	if succ.IterCount(op.Iter) == 0 {
		return nil, 0
	}
	g := s.ctx.G
	depth := 0
	for _, x := range s.byIter[op.Iter+1] {
		if x == op || x.Frozen || g.NodeOf(x) != succ {
			continue
		}
		if v := g.Where(x); !x.IsBranch() && v != succ.Root && !reachesOnlyDrains(v.Sibling()) {
			depth = anyDepth // the hoist probe reads liveness below the chain
		}
		if s.canFill(x, op) {
			ok := s.gaplessMove(succ, x) // leaves x's entry current
			depth = max(depth, s.gapMemo[x.Index].depth())
			if ok {
				return x, depth
			}
		}
	}
	return nil, depth
}

// reachesOnlyDrains reports whether every node reachable from the
// leaves of the subtree rooted at v is a drain. One incoming edge per
// node makes what a leaf reaches a tree, so the walk ends.
func reachesOnlyDrains(v *graph.Vertex) bool {
	return v.VisitLeaves(func(l *graph.Vertex) bool {
		return l.Succ == nil || l.Succ.Drain && reachesOnlyDrains(l.Succ.Root)
	})
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
// maximum). It reads only the homes of the iteration's ops, and a node
// keeps its position while it holds ops, so it stays exact until one of
// them changes home: opHome then zeroes ver. Every further
// isLastOfIter probe in the condition-4 recursion is O(1).
type iterFrontier struct {
	ver  uint64  // graph version computed or last confirmed at; 0 = recompute
	n    int     // schedulable ops of the iteration in non-drain nodes
	op1  *ir.Op  // an op attaining max1
	max1 float64 // highest home position
	max2 float64 // highest home position over ops other than op1
}

// frontier returns iteration iter's frontier, recomputed when an op of
// the iteration changed home since it was built. Under
// Options.CrossCheck a frontier kept from an older version is
// recomputed, and a disagreement panics.
func (s *scheduler) frontier(iter int) *iterFrontier {
	f := &s.frontiers[iter+1]
	ver := s.ctx.G.Version()
	switch f.ver {
	case ver:
		return f
	case 0:
		*f = s.buildFrontier(iter)
	default:
		if s.opts.CrossCheck {
			ref := s.buildFrontier(iter)
			if ref.ver = f.ver; ref != *f {
				panic(fmt.Sprintf("core: iteration %d frontier kept from version %d has %d ops, max %v (%v), next %v; a recompute says %d, %v (%v), %v",
					iter, f.ver, f.n, f.max1, f.op1, f.max2, ref.n, ref.max1, ref.op1, ref.max2))
			}
		}
	}
	f.ver = ver
	return f
}

// buildFrontier computes iteration iter's frontier from its ops' homes.
func (s *scheduler) buildFrontier(iter int) iterFrontier {
	var f iterFrontier
	g := s.ctx.G
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

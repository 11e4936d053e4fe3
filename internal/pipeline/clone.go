package pipeline

import (
	"repro/internal/ir"
)

// Clone copies the built unwound program for a post-pass to mutate:
// the allocator, the scheduled graph, and the operation list,
// re-pointed at the graph's copies (BuildGraph places every op of Ops,
// and scheduling moves ops without removing them). The live-in and
// live-out maps, ExitLive and the epilogue registers are shared: nothing
// writes them after BuildGraph, and Optimize refuses to run once the
// graph exists. Transformations applied to the clone allocate the same
// IDs and produce the same schedules as if they had been applied to the
// original, so a scheduling phase computed once can be reused as the
// starting point of several mutating post-passes (POST's phase 1).
func (u *Unwound) Clone() *Unwound {
	c := *u
	c.Alloc = u.Alloc.Clone()
	g, byID := u.G.Clone(c.Alloc)
	c.G = g
	c.Ops = make([]*ir.Op, len(u.Ops))
	for i, op := range u.Ops {
		c.Ops[i] = byID[op.ID]
	}
	return &c
}

// Clone deep-copies the result, including the unwound program and its
// scheduled graph, so the copy can be mutated (re-scheduled, broken,
// refilled) without touching the original.
func (r *Result) Clone() *Result {
	c := *r
	if r.Kernel != nil {
		k := *r.Kernel
		c.Kernel = &k
	}
	c.Unwound = r.Unwound.Clone()
	return &c
}

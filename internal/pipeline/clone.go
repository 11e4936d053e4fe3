package pipeline

import (
	"repro/internal/ir"
)

// Clone deep-copies the built unwound program: the allocator, the
// scheduled graph, and the operation list, re-pointed at the graph's
// copies (BuildGraph places every op of Ops, and scheduling moves ops
// without removing them). The clone is fully independent —
// transformations applied to it allocate the same IDs and produce the
// same schedules as if they had been applied to the original, so a
// scheduling phase computed once can be reused as the starting point of
// several mutating post-passes (POST's phase 1).
func (u *Unwound) Clone() *Unwound {
	c := &Unwound{
		Spec:         u.Spec,
		U:            u.U,
		Alloc:        u.Alloc.Clone(),
		LiveIn:       make(map[string]ir.Reg, len(u.LiveIn)),
		LiveOut:      make(map[string]ir.Reg, len(u.LiveOut)),
		ExitLive:     make(map[ir.Reg]bool, len(u.ExitLive)),
		liveOutNames: append([]string(nil), u.liveOutNames...),
		removed:      u.removed,
	}
	for k, v := range u.LiveIn {
		c.LiveIn[k] = v
	}
	for k, v := range u.LiveOut {
		c.LiveOut[k] = v
	}
	for k, v := range u.ExitLive {
		c.ExitLive[k] = v
	}
	for _, snap := range u.epilogues {
		c.epilogues = append(c.epilogues, append([]ir.Reg(nil), snap...))
	}
	g, byID := u.G.Clone(c.Alloc)
	c.G = g
	c.Ops = make([]*ir.Op, len(u.Ops))
	for i, op := range u.Ops {
		c.Ops[i] = byID[op.ID]
	}
	return c
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

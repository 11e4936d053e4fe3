package core

import (
	"context"

	"repro/internal/deps"
	"repro/internal/ir"
	"repro/internal/ps"
)

// AuditAfter schedules the first nodes nodes of pctx's graph as
// Schedule does and returns the CrossCheck audit of the candidate
// structure (checkCandidates, park lists included) on the state it
// stops in, for the external benchmarks.
func AuditAfter(pctx *ps.Ctx, ops []*ir.Op, pri *deps.Priority, opts Options, nodes int) (func() error, error) {
	s := newScheduler(context.Background(), pctx, ops, pri, opts)
	for n := pctx.G.Entry; nodes > 0 && n != nil && !n.Drain; nodes-- {
		if err := s.scheduleNode(n); err != nil {
			return nil, err
		}
		s.clearSuspensions()
		n = n.NonDrainSucc()
	}
	return s.checkCandidates, nil
}

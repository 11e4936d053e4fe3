package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/ps"
)

// migrationFixture is LL1 unwound 48 times, with its graph and
// dependence indices built, for the benchmarks to clone.
func migrationFixture(b *testing.B) *pipeline.Unwound {
	base, err := pipeline.Unwind(livermore.ByName("LL1").Spec, 48)
	if err != nil {
		b.Fatal(err)
	}
	base.BuildGraph()
	deps.Build(base.Ops)
	return base
}

// BenchmarkMigrationStep measures GRiP scheduling of a real unwound
// kernel — the Figure 10 loop's end-to-end cost including the
// Moveable-ops scans, gapless tests, and ps moves. The per-run graph
// clone is excluded from the timer, so ns/op is pure scheduling.
func BenchmarkMigrationStep(b *testing.B) {
	base := migrationFixture(b)

	b.ReportAllocs()
	b.ResetTimer()
	var moves int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		uw := base.Clone() // fresh graph per run, off-timer
		ddg := deps.Build(uw.Ops)
		pctx := ps.NewCtx(uw.G, machine.New(4), uw.ExitLive)
		pctx.D = ddg
		b.StartTimer()
		stats, err := core.Schedule(context.Background(), pctx, uw.Ops, deps.NewPriority(ddg), core.Options{GapPrevention: true})
		if err != nil {
			b.Fatal(err)
		}
		moves = stats.Moves
	}
	b.ReportMetric(float64(moves), "moves/schedule")
}

// BenchmarkCandidateAudit measures one CrossCheck audit of the
// candidate structure and its park lists, the check that runs at every
// pick under CrossCheck, on BenchmarkMigrationStep's schedule stopped
// halfway through its nodes.
func BenchmarkCandidateAudit(b *testing.B) {
	base := migrationFixture(b)
	fresh := func() (*pipeline.Unwound, *ps.Ctx, *deps.Priority) {
		uw := base.Clone()
		ddg := deps.Build(uw.Ops)
		pctx := ps.NewCtx(uw.G, machine.New(4), uw.ExitLive)
		pctx.D = ddg
		return uw, pctx, deps.NewPriority(ddg)
	}
	opts := core.Options{GapPrevention: true}
	uw, pctx, pri := fresh()
	stats, err := core.Schedule(context.Background(), pctx, uw.Ops, pri, opts)
	if err != nil {
		b.Fatal(err)
	}
	uw, pctx, pri = fresh()
	audit, err := core.AuditAfter(pctx, uw.Ops, pri, opts, stats.NodesScheduled/2)
	if err != nil {
		b.Fatal(err)
	}
	if err := audit(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := audit(); err != nil {
			b.Fatal(err)
		}
	}
}

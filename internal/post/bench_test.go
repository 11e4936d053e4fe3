package post

import (
	"context"
	"testing"

	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// BenchmarkPOSTSweep measures POST's resource post-pass (clone the
// phase-1 memo, break over-wide nodes, refill locally) — the path the
// arena clone makes cheap. Phase 1 runs once, outside the loop, exactly
// as the memoized production path does.
func BenchmarkPOSTSweep(b *testing.B) {
	cfg := pipeline.DefaultConfig(machine.New(4))
	phase1, err := pipeline.PerfectPipeline(context.Background(), livermore.ByName("LL3").Spec, Phase1Config(cfg))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := From(context.Background(), phase1.Clone(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

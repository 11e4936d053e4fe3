package pipeline_test

import (
	"context"
	"testing"

	"repro/internal/ir"
	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/post"
)

// TestMaxUnwindBelowLadder: the unwind ladder starts at 12, and a cap
// below that rung schedules once, at the cap, for GRiP and for POST
// alike. An empty ladder would return no result and no error.
func TestMaxUnwindBelowLadder(t *testing.T) {
	spec := livermore.LL1().Spec
	for _, tech := range []struct {
		name string
		run  func(context.Context, *ir.LoopSpec, pipeline.Config) (*pipeline.Result, error)
	}{{"grip", pipeline.PerfectPipeline}, {"post", post.Pipeline}} {
		for _, max := range []int{1, 6, 11} {
			cfg := pipeline.DefaultConfig(machine.New(4))
			cfg.MaxUnwind = max
			res, err := tech.run(context.Background(), spec, cfg)
			if err != nil {
				t.Fatalf("%s, MaxUnwind %d: %v", tech.name, max, err)
			}
			if res == nil || res.U != max {
				t.Fatalf("%s, MaxUnwind %d: result %+v, want one at U=%d", tech.name, max, res, max)
			}
		}
	}
}

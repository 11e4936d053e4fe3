package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/post"
)

// TestParkingBoundsPhase1Picks guards the pick count of the schedule
// parking was built for: LL7's POST phase 1 (GRiP at infinite width
// with gap prevention) at a fixed unwind of 24. Without parking every
// generation bump hands each dependence-blocked op back to chooseOp,
// and the schedule takes 429,399 picks; parked, 131,499. The other
// counts are the schedule's own and must not move: parking skips only
// re-picks that would have changed nothing.
func TestParkingBoundsPhase1Picks(t *testing.T) {
	cfg := post.Phase1Config(pipeline.DefaultConfig(machine.New(2)))
	cfg.Unwind = 24
	res, err := pipeline.PerfectPipeline(context.Background(), livermore.ByName("LL7").Spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Picks > 200_000 {
		t.Errorf("LL7 phase 1 at u=24 made %d picks, want at most 200,000", st.Picks)
	}
	want := core.Stats{
		NodesScheduled:   26,
		Moves:            5574,
		ArrivedAtTarget:  36,
		PartialMoves:     4495,
		ResourceBarriers: 55778,
		BarrierOps:       23,
		Suspensions:      15294,
		Unsuspensions:    15255,
		GaplessRejects:   15294,
		Picks:            st.Picks,
	}
	if st != want {
		t.Errorf("LL7 phase 1 at u=24: stats %+v, want %+v", st, want)
	}
}

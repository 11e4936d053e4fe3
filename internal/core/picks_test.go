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

// TestParkingBoundsPhase1Picks guards the pick counts of the schedules
// parking was built for: LL7's and LL9's POST phase 1 (GRiP at infinite
// width with gap prevention) at a fixed unwind of 24. Without parking
// every generation bump hands each blocked op back to chooseOp, and
// LL7's schedule takes 429,399 picks; with dependence-blocked ops
// parked and every event waking their whole node, 131,499 (LL9:
// 133,071). With branches barred by a full branch slot parked too, and
// wakes filtered by what each parked verdict read, about 30,000. The
// other counts are the schedule's own and must not move: parking skips
// only re-picks that would have changed nothing but a barrier count,
// and the barriers those re-picks would have hit are counted all the
// same.
func TestParkingBoundsPhase1Picks(t *testing.T) {
	for _, tc := range []struct {
		loop string
		want core.Stats
	}{
		{"LL7", core.Stats{
			NodesScheduled:   26,
			Moves:            5574,
			ArrivedAtTarget:  36,
			PartialMoves:     4495,
			ResourceBarriers: 55778,
			BarrierOps:       23,
			Suspensions:      15294,
			Unsuspensions:    15255,
			GaplessRejects:   15294,
		}},
		{"LL9", core.Stats{
			NodesScheduled:   30,
			Moves:            5014,
			ArrivedAtTarget:  54,
			PartialMoves:     3979,
			ResourceBarriers: 50390,
			BarrierOps:       23,
			Suspensions:      13019,
			Unsuspensions:    12944,
			GaplessRejects:   13019,
		}},
	} {
		cfg := post.Phase1Config(pipeline.DefaultConfig(machine.New(2)))
		cfg.Unwind = 24
		res, err := pipeline.PerfectPipeline(context.Background(), livermore.ByName(tc.loop).Spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.Picks > 50_000 {
			t.Errorf("%s phase 1 at u=24 made %d picks, want at most 50,000", tc.loop, st.Picks)
		}
		tc.want.Picks = st.Picks
		if st != tc.want {
			t.Errorf("%s phase 1 at u=24: stats %+v, want %+v", tc.loop, st, tc.want)
		}
	}
}

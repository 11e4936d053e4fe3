package sched

import (
	"context"
	"testing"

	"repro/internal/ir"
	"repro/internal/lru"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// TestPhase1MemoKeysOnCrossCheck runs POST on one loop plain and then
// with CrossCheck through a fresh phase-1 memo. The config fingerprint
// omits CrossCheck, so without it in the key the checked request would
// reuse the unchecked phase 1. Checked requests still share phase 1
// with each other.
func TestPhase1MemoKeysOnCrossCheck(t *testing.T) {
	s := postScheduler{memo: lru.New[string, *pipeline.Result](4)}
	spec := &ir.LoopSpec{
		Name: "copy",
		Body: []ir.BodyOp{
			ir.BLoad("t", ir.Aff("A", 1, 0)),
			ir.BStore(ir.Aff("B", 1, 0), "t"),
		},
		Step: 1, TripVar: "n",
	}
	plain := Request{Spec: spec, Machine: machine.New(2)}
	checked := plain
	checked.Config.CrossCheck = true
	for i, r := range []Request{plain, checked, checked} {
		if _, err := s.Schedule(context.Background(), r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := s.memo.Len(); got != 2 {
		t.Errorf("phase-1 memo holds %d entries after plain+checked+checked, want 2", got)
	}
}

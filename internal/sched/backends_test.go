package sched_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sched/batch"
)

// memoProbe is a backend that records the size of the phase-1 memo its
// request's context carries (-1 outside a run). Run last in a
// single-worker batch, it sees what the run's earlier jobs left.
type memoProbe struct{ memoLen atomic.Int64 }

func (*memoProbe) Name() string { return "test-memo-probe" }

func (p *memoProbe) Schedule(ctx context.Context, req sched.Request) (*sched.Result, error) {
	p.memoLen.Store(int64(sched.RunMemoLen(ctx)))
	return sched.NewResult(sched.Metrics{Technique: p.Name(), Loop: req.Spec.Name}, nil), nil
}

var (
	probe     = &memoProbe{}
	probeOnce sync.Once
)

// memoAfter runs jobs and then the probe in one single-worker batch and
// returns the outcomes of jobs and the memo size the probe saw.
func memoAfter(t *testing.T, jobs []batch.Job) ([]batch.Outcome, int64) {
	t.Helper()
	probeOnce.Do(func() { sched.Register(probe) })
	probe.memoLen.Store(-2)
	jobs = append(jobs, batch.Job{Technique: probe.Name(), Spec: dotLoop()})
	outs, err := batch.Run(context.Background(), jobs, batch.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}
	return outs[:len(outs)-1], probe.memoLen.Load()
}

// TestPhase1MemoKeysOnCrossCheck runs POST on one loop plain and then
// twice with CrossCheck in one run. The config fingerprint omits
// CrossCheck, so without it in the key the checked requests would
// reuse the unchecked phase 1. Checked requests still share phase 1
// with each other.
func TestPhase1MemoKeysOnCrossCheck(t *testing.T) {
	spec := &ir.LoopSpec{
		Name: "copy",
		Body: []ir.BodyOp{
			ir.BLoad("t", ir.Aff("A", 1, 0)),
			ir.BStore(ir.Aff("B", 1, 0), "t"),
		},
		Step: 1, TripVar: "n",
	}
	plain := batch.Job{Technique: "post", Spec: spec, Machine: machine.New(2)}
	checked := plain
	checked.Config.CrossCheck = true
	if _, n := memoAfter(t, []batch.Job{plain, checked, checked}); n != 2 {
		t.Errorf("phase-1 memo holds %d entries after plain+checked+checked, want 2", n)
	}
}

// TestPhase1MemoScopedToRun: POST at two widths in one batch run shares
// one phase 1, the next run starts with an empty memo, and a request
// made outside any run carries no memo and returns the same metrics.
func TestPhase1MemoScopedToRun(t *testing.T) {
	spec := dotLoop()
	jobs := []batch.Job{
		{Technique: "post", Spec: spec, Machine: machine.New(2)},
		{Technique: "post", Spec: spec, Machine: machine.New(4)},
	}
	outs, n := memoAfter(t, jobs)
	if n != 1 {
		t.Errorf("phase-1 memo holds %d entries after POST at 2 and 4 FUs, want 1", n)
	}
	if _, n := memoAfter(t, nil); n != 0 {
		t.Errorf("the next run's phase-1 memo starts with %d entries, want 0", n)
	}
	for i, j := range jobs {
		res, err := sched.Schedule(context.Background(), "post", j.Request())
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics != outs[i].Result.Metrics {
			t.Errorf("@%dFU: outside a run %+v, in a run %+v", j.Machine.OpSlots, res.Metrics, outs[i].Result.Metrics)
		}
	}
	if _, err := sched.Schedule(context.Background(), probe.Name(), req(spec, machine.New(2))); err != nil {
		t.Fatal(err)
	}
	if n := probe.memoLen.Load(); n != -1 {
		t.Errorf("a request outside any run sees a phase-1 memo of %d entries, want none", n)
	}
}

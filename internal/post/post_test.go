package post

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/livermore"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

func TestPostRespectsResources(t *testing.T) {
	k := livermore.ByName("LL1")
	for _, fus := range []int{2, 4} {
		cfg := pipeline.DefaultConfig(machine.New(fus))
		res, err := Pipeline(context.Background(), k.Spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// After breaking, every main-chain row obeys the target width
		// (over-wide rows may only remain when nothing was safely
		// demotable, which must not happen on this vectorizable loop).
		for _, n := range res.Unwound.G.MainChain() {
			if n.OpCount() > fus {
				t.Errorf("@%dFU: row n%d has %d ops", fus, n.ID, n.OpCount())
			}
			if n.BranchCount() > 1 {
				t.Errorf("@%dFU: row n%d has %d branches", fus, n.ID, n.BranchCount())
			}
		}
		if res.Speedup <= 1 {
			t.Errorf("@%dFU: speedup %.2f", fus, res.Speedup)
		}
		if err := res.Unwound.G.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPostSemanticsPreserved(t *testing.T) {
	k := livermore.ByName("LL10")
	cfg := pipeline.DefaultConfig(machine.New(4))
	res, err := Pipeline(context.Background(), k.Spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trips := []int64{2, int64(res.U / 2), int64(res.U)}
	if err := pipeline.ValidateSemantics(res, k.Vars, k.Arrays(res.U+8), trips); err != nil {
		t.Fatal(err)
	}
}

func TestPostNeverBeatsBoundlessGrip(t *testing.T) {
	// POST's phase-1 schedule at infinite resources retires at most one
	// iteration per cycle (single branch slot); the post-pass can only
	// slow it down.
	k := livermore.ByName("LL12")
	cfg := pipeline.DefaultConfig(machine.New(8))
	res, err := Pipeline(context.Background(), k.Spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesPerIter < 0.999 {
		t.Fatalf("POST rate %.3f cycles/iter beats the branch-slot floor", res.CyclesPerIter)
	}
}

// TestFromCrossChecksRefillProbes: under CrossCheck, POST's own moves
// verify their move-past-read scans as core's moves do. The phase-1
// clone is desynchronized with bare operand rewrites — in every row the
// post-pass will not break, one root op now reads another's
// destination behind the use masks' back — so the refill probes'
// move-past-read fast path misses a reader the reference scan sees,
// and From must panic.
func TestFromCrossChecksRefillProbes(t *testing.T) {
	k := livermore.ByName("LL1")
	cfg := pipeline.DefaultConfig(machine.New(2))
	phase1, err := pipeline.PerfectPipeline(context.Background(), k.Spec, Phase1Config(cfg))
	if err != nil {
		t.Fatal(err)
	}
	desynced := func() *pipeline.Result {
		res := phase1.Clone()
		var useBuf [3]ir.Reg
		for _, n := range res.Unwound.G.MainChain() {
			if n.Drain || !cfg.Machine.FitsOps(n.OpCount()) {
				continue
			}
			ops := n.Root.Ops
			for i, a := range ops {
				b := ops[(i+1)%len(ops)]
				if b == a || a.Def() == ir.NoReg || a.Frozen || b.Frozen {
					continue
				}
				if uses := b.Uses(useBuf[:0]); len(uses) > 0 {
					b.ReplaceUse(uses[0], a.Def()) // bare: the use mask misses it
					break
				}
			}
		}
		return res
	}

	if _, err := From(context.Background(), desynced(), cfg); err != nil {
		t.Fatal(err) // unchecked, the desync goes unnoticed
	}
	cfg.CrossCheck = true
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("From under CrossCheck ran a desynchronized summary unchecked")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "move-past-read") {
			t.Fatalf("panic %q, want the move-past-read cross-check", msg)
		}
	}()
	From(context.Background(), desynced(), cfg)
}

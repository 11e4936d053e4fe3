package sched_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/modulo"
	"repro/internal/pipeline"
	"repro/internal/post"
	"repro/internal/sched"
)

func dotLoop() *ir.LoopSpec {
	return &ir.LoopSpec{
		Name: "dot",
		Body: []ir.BodyOp{
			ir.BLoad("t1", ir.Aff("Z", 1, 0)),
			ir.BLoad("t2", ir.Aff("X", 1, 0)),
			ir.BMul("t3", "t1", "t2"),
			ir.BAdd("q", "q", "t3"),
		},
		Step: 1, TripVar: "n",
		LiveIn: []string{"q"}, LiveOut: []string{"q"},
	}
}

func req(spec *ir.LoopSpec, m machine.Machine) sched.Request {
	return sched.Request{Spec: spec, Machine: m}
}

func TestRegistryHasAllTechniques(t *testing.T) {
	for _, name := range []string{"grip", "post", "modulo", "list"} {
		s, ok := sched.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) = not found", name)
		}
		if s.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, s.Name())
		}
	}
	names := sched.Names()
	if len(names) < 4 {
		t.Errorf("Names() = %v, want at least the four techniques", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
}

func TestScheduleUnknownTechnique(t *testing.T) {
	if _, err := sched.Schedule(context.Background(), "no-such-scheduler", req(dotLoop(), machine.New(4))); err == nil {
		t.Fatal("Schedule with unknown name succeeded")
	}
	if _, ok := sched.Lookup("no-such-scheduler"); ok {
		t.Fatal("Lookup invented a scheduler")
	}
}

// TestBackendsMatchDirectCalls proves the adapters are transparent: the
// normalized result of every backend equals the corresponding direct
// technique call, including POST, whose adapter reuses a memoized
// phase-1 schedule through a deep clone.
func TestBackendsMatchDirectCalls(t *testing.T) {
	ctx := context.Background()
	spec := dotLoop()
	for _, fus := range []int{2, 4} {
		m := machine.New(fus)
		cfg := pipeline.DefaultConfig(m)

		g, err := sched.Schedule(ctx, "grip", req(spec, m))
		if err != nil {
			t.Fatalf("grip @%dFU: %v", fus, err)
		}
		gd, err := pipeline.PerfectPipeline(ctx, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g.Speedup != gd.Speedup || g.CyclesPerIter != gd.CyclesPerIter ||
			g.Converged != gd.Converged || g.Rows != gd.Rows ||
			g.Barriers != gd.Stats.ResourceBarriers {
			t.Errorf("grip @%dFU: adapter %+v != direct speedup=%v cpi=%v conv=%v rows=%d",
				fus, g, gd.Speedup, gd.CyclesPerIter, gd.Converged, gd.Rows)
		}
		if g.Technique != "grip" || g.Loop != spec.Name {
			t.Errorf("grip labels: %q %q", g.Technique, g.Loop)
		}

		// Run post twice so both the memo-miss and memo-hit paths are
		// compared against the direct pipeline.
		for pass := 0; pass < 2; pass++ {
			p, err := sched.Schedule(ctx, "post", req(spec, m))
			if err != nil {
				t.Fatalf("post @%dFU: %v", fus, err)
			}
			pd, err := post.Pipeline(ctx, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if p.Speedup != pd.Speedup || p.CyclesPerIter != pd.CyclesPerIter ||
				p.Converged != pd.Converged || p.Rows != pd.Rows {
				t.Errorf("post @%dFU pass %d: adapter speedup=%v cpi=%v conv=%v rows=%d != direct %v %v %v %d",
					fus, pass, p.Speedup, p.CyclesPerIter, p.Converged, p.Rows,
					pd.Speedup, pd.CyclesPerIter, pd.Converged, pd.Rows)
			}
		}

		mo, err := sched.Schedule(ctx, "modulo", req(spec, m))
		if err != nil {
			t.Fatal(err)
		}
		md, err := modulo.Schedule(ctx, spec, m)
		if err != nil {
			t.Fatal(err)
		}
		if mo.Speedup != md.Speedup || mo.CyclesPerIter != float64(md.II) || !mo.Converged {
			t.Errorf("modulo @%dFU: %+v != II=%d speedup=%v", fus, mo, md.II, md.Speedup)
		}

		ls, err := sched.Schedule(ctx, "list", req(spec, m))
		if err != nil {
			t.Fatal(err)
		}
		ld := listsched.Schedule(spec, m)
		if ls.Speedup != ld.Speedup || ls.CyclesPerIter != float64(ld.Cycles) {
			t.Errorf("list @%dFU: %+v != cycles=%d speedup=%v", fus, ls, ld.Cycles, ld.Speedup)
		}
	}
}

// TestResultRawTypes checks each backend attaches its native result
// when (and only when) the request asks for it.
func TestResultRawTypes(t *testing.T) {
	spec := dotLoop()
	m := machine.New(4)
	for name, want := range map[string]func(any) bool{
		"grip":   func(r any) bool { _, ok := r.(*pipeline.Result); return ok },
		"post":   func(r any) bool { _, ok := r.(*pipeline.Result); return ok },
		"modulo": func(r any) bool { _, ok := r.(*modulo.Result); return ok },
		"list":   func(r any) bool { _, ok := r.(*listsched.Result); return ok },
	} {
		r := req(spec, m)
		r.Want = sched.WantRaw
		res, err := sched.Schedule(context.Background(), name, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !want(res.Raw()) {
			t.Errorf("%s: Raw has unexpected type %T", name, res.Raw())
		}
		// The default (WantMetrics) must not retain the raw graph.
		lean, err := sched.Schedule(context.Background(), name, req(spec, m))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lean.Raw() != nil {
			t.Errorf("%s: WantMetrics request retained a raw attachment %T", name, lean.Raw())
		}
		if lean.Metrics != res.Metrics {
			t.Errorf("%s: Want changed the metrics: %+v != %+v", name, lean.Metrics, res.Metrics)
		}
	}
}

// TestConfigRespected proves a per-request Config reaches the pipeline:
// a fixed unwind factor must reproduce the direct call with the same
// factor and differ from the automatic ladder when the factors differ.
func TestConfigRespected(t *testing.T) {
	ctx := context.Background()
	spec := dotLoop()
	m := machine.New(2)
	r := req(spec, m)
	r.Config = sched.Config{Unwind: 8}
	r.Want = sched.WantRaw
	got, err := sched.Schedule(ctx, "grip", r)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig(m)
	cfg.Unwind = 8
	want, err := pipeline.PerfectPipeline(ctx, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows || got.Speedup != want.Speedup || got.Converged != want.Converged {
		t.Errorf("configured adapter rows=%d speedup=%v != direct rows=%d speedup=%v",
			got.Rows, got.Speedup, want.Rows, want.Speedup)
	}
	if got.Raw().(*pipeline.Result).U != 8 {
		t.Errorf("unwind override ignored: U = %d, want 8", got.Raw().(*pipeline.Result).U)
	}
}

// TestConfigFingerprint pins the canonical-key properties the cache
// relies on: zero value == explicit defaults, every knob discriminates,
// and the request fingerprint composes spec, machine and config.
func TestConfigFingerprint(t *testing.T) {
	zero := sched.Config{}
	explicit := sched.Config{MaxUnwind: pipeline.DefaultMaxUnwind, Periods: pipeline.DefaultPeriods}
	if zero.Fingerprint() != explicit.Fingerprint() {
		t.Errorf("zero config %q != explicitly defaulted config %q",
			zero.Fingerprint(), explicit.Fingerprint())
	}
	distinct := []sched.Config{
		zero,
		{Unwind: 8},
		{Unwind: 16},
		{MaxUnwind: 48},
		{NoOptimize: true},
		{NoGapPrevention: true},
		{EmptyPrelude: 4},
		{Renaming: true},
		{Periods: 5},
	}
	seen := map[string]sched.Config{}
	for _, c := range distinct {
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("configs %+v and %+v share fingerprint %q", prev, c, fp)
		}
		seen[fp] = c
	}

	r := sched.Request{Spec: dotLoop(), Machine: machine.New(2)}
	fp := r.Fingerprint()
	for _, part := range []string{r.Spec.Fingerprint(), r.Machine.Fingerprint(), r.Config.Fingerprint()} {
		if !strings.Contains(fp, part) {
			t.Errorf("request fingerprint %q missing component %q", fp, part)
		}
	}
	r2 := r
	r2.Config.Unwind = 24
	if r2.Fingerprint() == fp {
		t.Error("request fingerprint ignores the config")
	}

	// Want is retention advice, not experiment identity: it must not
	// perturb the fingerprint, or WantRaw validation runs would occupy
	// separate cache entries from the table cells they certify.
	r3 := r
	r3.Want = sched.WantRaw
	if r3.Fingerprint() != fp {
		t.Error("Want leaked into the request fingerprint")
	}
}

// TestConfigValidate pins which configs the commands accept: zero and
// positive knobs pass, a negative value in any integer knob is
// rejected with the knob's name in the error.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg  sched.Config
		knob string // "" = valid
	}{
		{sched.Config{}, ""},
		{sched.Config{Unwind: 24, MaxUnwind: 48, EmptyPrelude: 2, Periods: 5}, ""},
		{sched.Config{Unwind: -1}, "unwind"},
		{sched.Config{MaxUnwind: -1}, "maxunwind"},
		{sched.Config{EmptyPrelude: -1}, "prelude"},
		{sched.Config{Periods: -3}, "periods"},
	} {
		err := tc.cfg.Validate()
		if tc.knob == "" {
			if err != nil {
				t.Errorf("%+v: unexpected error %v", tc.cfg, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.knob+"=") {
			t.Errorf("%+v: error %v, want one naming %s", tc.cfg, err, tc.knob)
		}
	}
}

// TestBackendsHonorCancelledContext proves every backend returns its
// context's error instead of scheduling when cancelled up front.
func TestBackendsHonorCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"grip", "post", "modulo", "list"} {
		_, err := sched.Schedule(ctx, name, req(dotLoop(), machine.New(4)))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

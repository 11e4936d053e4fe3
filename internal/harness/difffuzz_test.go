package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fuzzgen"
	"repro/internal/sched"
	"repro/internal/testutil"
	"repro/internal/textir"
)

// TestCorpusReplay is the tier-1 regression gate: every checked-in
// crasher/mismatch reproducer must replay green through the full
// technique x machine matrix with cross-checks armed.
func TestCorpusReplay(t *testing.T) {
	testutil.LeakCheck(t)
	results, err := ReplayCorpus(context.Background(), "../../testdata/corpus", FuzzOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 8 {
		t.Fatalf("replayed only %d corpus entries; the checked-in corpus has at least 8", len(results))
	}
	for _, r := range results {
		for _, f := range r.Verdict.Failures {
			t.Errorf("%s: %s", r.File, f)
		}
	}
}

// TestFuzzSweepGreen runs a slice of the seeded sweep end to end: the
// registered backends must pass every oracle on every generated loop.
func TestFuzzSweepGreen(t *testing.T) {
	testutil.LeakCheck(t)
	if testing.Short() {
		t.Skip("short mode: the sweep schedules hundreds of cells")
	}
	rep, err := FuzzSweep(context.Background(), SweepOptions{Seeds: 25})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seeds != 25 {
		t.Errorf("judged %d seeds, want 25", rep.Seeds)
	}
	wantChecks := 25 * 3 * len(sched.Names())
	if rep.Checks != wantChecks {
		t.Errorf("ran %d checks, want %d", rep.Checks, wantChecks)
	}
	for _, f := range rep.Failures {
		for _, ff := range f.Failures {
			t.Errorf("seed %d: %s", f.Seed, ff)
		}
	}
}

// TestVerdictDeterminism pins the acceptance property that a seed's
// verdict is a pure function of the seed: same loops, same judgments,
// regardless of worker count.
func TestVerdictDeterminism(t *testing.T) {
	testutil.LeakCheck(t)
	for _, seed := range []int64{3, 26, 41} {
		spec := fuzzgen.SweepSpec(seed)
		a, err := CheckLoop(context.Background(), spec, FuzzOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := CheckLoop(context.Background(), spec, FuzzOptions{Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := verdictKey(a), verdictKey(b); got != want {
			t.Errorf("seed %d: verdict depends on parallelism:\n1 worker: %s\n8 workers: %s", seed, want, got)
		}
	}
}

// TestFailuresInJobOrder pins that CheckLoop's dispatch order never
// reaches a verdict: under a one-nanosecond job budget every cell
// fails, and the failures come back in (machine, technique) order at
// any worker count.
func TestFailuresInJobOrder(t *testing.T) {
	testutil.LeakCheck(t)
	spec := fuzzgen.SweepSpec(5)
	var want []string
	for _, fus := range []int{2, 4, 8} {
		for _, tech := range sched.Names() {
			want = append(want, fmt.Sprintf("%s@%d:%s", tech, fus, FailTimeout))
		}
	}
	for _, p := range []int{1, 2, 8} {
		v, err := CheckLoop(context.Background(), spec, FuzzOptions{Parallelism: p, Timeout: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range v.Failures {
			got = append(got, fmt.Sprintf("%s@%d:%s", f.Technique, f.FUs, f.Class))
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%d workers: failures\n%v\nwant\n%v", p, got, want)
		}
	}
}

func verdictKey(v *LoopVerdict) string {
	key := fmt.Sprintf("checks=%d", v.Checks)
	for _, f := range v.Failures {
		key += fmt.Sprintf("|%s@%d:%s", f.Technique, f.FUs, f.Class)
	}
	return key
}

// TestClassify pins CheckLoop's failure classes for job errors: a
// recovered panic (wrapped or not) is FailPanic, a deadline is
// FailTimeout, and anything else, a cancellation included, is
// FailError.
func TestClassify(t *testing.T) {
	pe := &sched.PanicError{Key: "k", Value: "index out of range"}
	cases := []struct {
		err  error
		want FailureClass
	}{
		{pe, FailPanic},
		{fmt.Errorf("wrapped: %w", pe), FailPanic},
		{context.DeadlineExceeded, FailTimeout},
		{fmt.Errorf("batch: grip on L: %w", context.DeadlineExceeded), FailTimeout},
		{context.Canceled, FailError},
		{errors.New("scheduler bug"), FailError},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

// TestMinimizeFailureShrinks wires the minimizer to the live oracle: a
// one-nanosecond job budget makes every cell of every candidate time
// out, so the loop must shrink to a single op while FailTimeout keeps
// reproducing.
func TestMinimizeFailureShrinks(t *testing.T) {
	testutil.LeakCheck(t)
	spec := fuzzgen.SweepSpec(9)
	f := FuzzFailure{Technique: "grip", FUs: 2, Class: FailTimeout}
	min, probes := MinimizeFailure(context.Background(), spec, f,
		FuzzOptions{Machines: []int{2}, Techniques: []string{"grip"}, Timeout: time.Nanosecond}, 500)
	if probes == 0 {
		t.Fatal("minimizer never probed the oracle")
	}
	if len(min.Body) != 1 {
		var b strings.Builder
		textir.Print(&b, min)
		t.Errorf("minimized to %d ops, want 1:\n%s", len(min.Body), b.String())
	}
	if err := min.Validate(); err != nil {
		t.Errorf("minimized spec invalid: %v", err)
	}
}

package ir

import (
	"strings"
	"testing"
)

// sampleLoop is an LL3-style inner product: q = q + z[k]*x[k].
func sampleLoop() *LoopSpec {
	return &LoopSpec{
		Name: "dot",
		Body: []BodyOp{
			BLoad("t1", Aff("Z", 1, 0)),
			BLoad("t2", Aff("X", 1, 0)),
			BMul("t3", "t1", "t2"),
			BAdd("q", "q", "t3"),
		},
		Start:   0,
		Step:    1,
		TripVar: "n",
		LiveIn:  []string{"q"},
		LiveOut: []string{"q"},
	}
}

func TestLoopSpecValidateOK(t *testing.T) {
	if err := sampleLoop().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestLoopSpecValidateCatchesUndefined(t *testing.T) {
	s := sampleLoop()
	s.Body = append(s.Body, BAdd("w", "nope", "q"))
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("Validate should flag undefined var, got %v", err)
	}
}

func TestLoopSpecValidateCatchesCounterWrite(t *testing.T) {
	s := sampleLoop()
	s.Body = append(s.Body, BAddI(CounterVar, "q", 1))
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should forbid writing the counter")
	}
}

func TestLoopSpecValidateCatchesBadLiveOut(t *testing.T) {
	s := sampleLoop()
	s.LiveOut = append(s.LiveOut, "ghost")
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should flag undefined live-out")
	}
}

func TestLoopSpecValidateEmptyBody(t *testing.T) {
	s := &LoopSpec{Name: "e", TripVar: "n", Step: 1}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should flag empty body")
	}
}

func TestSeqOpsPerIter(t *testing.T) {
	if got := sampleLoop().SeqOpsPerIter(); got != 6 {
		t.Fatalf("SeqOpsPerIter = %d, want 6 (4 body + increment + branch)", got)
	}
}

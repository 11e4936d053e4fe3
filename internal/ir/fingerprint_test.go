package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

func fpLoop() *LoopSpec {
	return &LoopSpec{
		Name: "fp",
		Body: []BodyOp{
			BLoad("t", Aff("A", 1, 0)),
			BAdd("q", "q", "t"),
		},
		Step: 1, TripVar: "n", LiveIn: []string{"q"}, LiveOut: []string{"q"},
	}
}

func TestFingerprintDeterministicAndContentBased(t *testing.T) {
	a, b := fpLoop(), fpLoop()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical specs fingerprint differently")
	}
	for _, mutate := range []func(*LoopSpec){
		func(s *LoopSpec) { s.Name = "other" },
		func(s *LoopSpec) { s.Start = 5 },
		func(s *LoopSpec) { s.Step = 2 },
		func(s *LoopSpec) { s.TripVar = "m" },
		func(s *LoopSpec) { s.LiveIn = nil },
		func(s *LoopSpec) { s.LiveOut = nil },
		func(s *LoopSpec) { s.Body[1] = BSub("q", "q", "t") },
		func(s *LoopSpec) { s.Body[0].Mem.Off = 3 },
		func(s *LoopSpec) { s.Body = s.Body[:1] },
	} {
		m := fpLoop()
		mutate(m)
		if m.Fingerprint() == a.Fingerprint() {
			t.Errorf("mutation did not change the fingerprint: %+v", m)
		}
	}
}

// fingerprintReference is the original fmt.Fprintf-based encoding the
// strconv implementation replaced. Fuzz workloads derive from the
// fingerprint, so the encodings must stay byte-identical for corpus
// entries to replay with the inputs they were found with.
func fingerprintReference(s *LoopSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "loop|%q|start=%d|step=%d|trip=%q", s.Name, s.Start, s.Step, s.TripVar)
	b.WriteString("|in=")
	for _, v := range s.LiveIn {
		fmt.Fprintf(&b, "%q,", v)
	}
	b.WriteString("|out=")
	for _, v := range s.LiveOut {
		fmt.Fprintf(&b, "%q,", v)
	}
	for _, op := range s.Body {
		fmt.Fprintf(&b, "|%d;%q;%q;%q;%d;%t;%q;%d;%d;%q",
			op.Kind, op.Dst, op.A, op.B, op.Imm, op.UseImm,
			op.Mem.Array, op.Mem.KCoef, op.Mem.Off, op.Mem.IndexVar)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// TestFingerprintEncodingStable pins the strconv-built fingerprint to
// the fmt-built encoding it replaced, including specs exercising every
// field, negative integers, quoting-sensitive identifiers, and an
// immediate-form body op.
func TestFingerprintEncodingStable(t *testing.T) {
	specs := []*LoopSpec{
		fpLoop(),
		{Name: "empty"},
		{
			Name:    `q"uo\te` + "\n|;,",
			Start:   -3,
			Step:    -1,
			TripVar: "n",
			LiveIn:  []string{"a", `b"b`},
			LiveOut: []string{"非ascii"},
			Body: []BodyOp{
				BAddI("x", "x", -42),
				BStore(Aff("A", -2, -7), "x"),
				BLoad("y", BodyRef{Array: "B", KCoef: 1, IndexVar: "x"}),
			},
		},
	}
	for _, s := range specs {
		if got, want := s.Fingerprint(), fingerprintReference(s); got != want {
			t.Errorf("spec %q: fingerprint %s, reference encoding %s", s.Name, got, want)
		}
	}
}

// TestFingerprintDelimiterInjection checks that identifiers containing
// the join delimiters cannot forge another spec's preimage.
func TestFingerprintDelimiterInjection(t *testing.T) {
	a := fpLoop()
	a.LiveIn = []string{"a,b"}
	b := fpLoop()
	b.LiveIn = []string{"a", "b"}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error(`LiveIn ["a,b"] collides with ["a","b"]`)
	}
	c := fpLoop()
	c.Name = `x"|start=9`
	d := fpLoop()
	d.Name = "x"
	d.Start = 9
	if c.Fingerprint() == d.Fingerprint() {
		t.Error("name containing delimiters forged the counter fields")
	}
}

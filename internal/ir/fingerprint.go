package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// Fingerprint returns a canonical content hash of the loop spec. Two
// specs with identical scheduling-relevant content (body, counter,
// live-in/live-out interface) fingerprint identically regardless of
// pointer identity, so the fingerprint can key result caches across
// runs. The Name participates: kernels are identified by name in
// reports, and two same-bodied loops under different names are
// different table rows.
func (s *LoopSpec) Fingerprint() string {
	// Every identifier is quoted (strconv.AppendQuote, the exact %q
	// encoding) so the result is unambiguous: names are arbitrary
	// tokens, and bare delimiters would let e.g. LiveIn ["a,b"] collide
	// with ["a", "b"]. Built with strconv appends instead of Fprintf —
	// this runs once per kernel per table cell and the verb parsing was
	// visible in the cold-table profile — byte-identical to the
	// Fprintf encoding it replaces (TestFingerprintEncodingStable),
	// from which fuzzgen.Workload derives every corpus entry's inputs.
	b := make([]byte, 0, 256)
	b = append(b, "loop|"...)
	b = strconv.AppendQuote(b, s.Name)
	b = append(b, "|start="...)
	b = strconv.AppendInt(b, s.Start, 10)
	b = append(b, "|step="...)
	b = strconv.AppendInt(b, s.Step, 10)
	b = append(b, "|trip="...)
	b = strconv.AppendQuote(b, s.TripVar)
	b = append(b, "|in="...)
	for _, v := range s.LiveIn {
		b = strconv.AppendQuote(b, v)
		b = append(b, ',')
	}
	b = append(b, "|out="...)
	for _, v := range s.LiveOut {
		b = strconv.AppendQuote(b, v)
		b = append(b, ',')
	}
	for _, op := range s.Body {
		b = append(b, '|')
		b = strconv.AppendUint(b, uint64(op.Kind), 10)
		b = append(b, ';')
		b = strconv.AppendQuote(b, op.Dst)
		b = append(b, ';')
		b = strconv.AppendQuote(b, op.A)
		b = append(b, ';')
		b = strconv.AppendQuote(b, op.B)
		b = append(b, ';')
		b = strconv.AppendInt(b, op.Imm, 10)
		b = append(b, ';')
		b = strconv.AppendBool(b, op.UseImm)
		b = append(b, ';')
		b = strconv.AppendQuote(b, op.Mem.Array)
		b = append(b, ';')
		b = strconv.AppendInt(b, op.Mem.KCoef, 10)
		b = append(b, ';')
		b = strconv.AppendInt(b, op.Mem.Off, 10)
		b = append(b, ';')
		b = strconv.AppendQuote(b, op.Mem.IndexVar)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// Clone returns an independent copy of the allocator: subsequent
// allocations on the clone and the original diverge without affecting
// each other. Used when deep-copying a program graph so that each copy
// keeps allocating deterministically from the same point.
func (a *Alloc) Clone() *Alloc {
	c := &Alloc{
		nextReg:   a.nextReg,
		nextArray: a.nextArray,
		nextOp:    a.nextOp,
		regNames:  make(map[Reg]string, len(a.regNames)),
		arrByName: make(map[string]Array, len(a.arrByName)),
	}
	for k, v := range a.regNames {
		c.regNames[k] = v
	}
	for k, v := range a.arrByName {
		c.arrByName[k] = v
	}
	return c
}

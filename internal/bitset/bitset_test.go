package bitset

import "testing"

func TestSetWordBoundaries(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		if s.Has(i) {
			t.Fatalf("fresh set has %d", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Add(%d) not visible", i)
		}
	}
	s.Remove(64)
	if s.Has(64) || !s.Has(63) || !s.Has(127) {
		t.Fatal("Remove disturbed neighbours")
	}
	// Out-of-range queries are never members; out-of-range Remove is a
	// no-op; out-of-range Add panics.
	if s.Has(-1) || s.Has(130) {
		t.Fatal("out-of-range membership")
	}
	s.Remove(-1)
	s.Remove(999)
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	s.Add(130)
}

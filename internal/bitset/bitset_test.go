package bitset

import (
	"math/rand"
	"testing"
)

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

// TestSetNextAtLeastAgainstReference drives random Add/Remove sequences
// against a []bool model and checks Has and NextAtLeast from every kind
// of start: negative, in range, and at or past the end. The sizes cover
// one word, exact word boundaries and many words.
func TestSetNextAtLeastAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 7, 63, 64, 65, 1000, 4096, 4097, 70000} {
		s := New(n)
		ref := make([]bool, n)
		next := func(i int) int {
			for i = max(i, 0); i < n; i++ {
				if ref[i] {
					return i
				}
			}
			return -1
		}
		check := func(step, i int) {
			if got, want := s.NextAtLeast(i), next(i); got != want {
				t.Fatalf("n=%d step=%d: NextAtLeast(%d) = %d, want %d", n, step, i, got, want)
			}
		}
		for step := 0; step < 4000; step++ {
			i := rng.Intn(n)
			switch rng.Intn(4) {
			case 0, 1:
				s.Add(i)
				ref[i] = true
			case 2:
				s.Remove(i)
				ref[i] = false
			case 3:
				check(step, i)
			}
			if got, want := s.Has(i), ref[i]; got != want {
				t.Fatalf("n=%d step=%d: Has(%d) = %v, want %v", n, step, i, got, want)
			}
			check(step, rng.Intn(n+130)-65)
		}
		for _, i := range []int{-1, 0, n - 1, n, n + 1} {
			check(4000, i)
		}
	}
}

// TestSetNextAtLeastEdges covers the cases a random walk rarely hits:
// an empty set searched from any start, a lone member in the last bit,
// idempotent Add and Remove, and sets of capacity zero.
func TestSetNextAtLeastEdges(t *testing.T) {
	s := New(130)
	for _, i := range []int{-5, 0, 129, 130, 194} {
		if got := s.NextAtLeast(i); got != -1 {
			t.Fatalf("empty set: NextAtLeast(%d) = %d, want -1", i, got)
		}
	}
	s.Add(129)
	s.Add(129) // idempotent
	if s.NextAtLeast(-5) != 129 || s.NextAtLeast(129) != 129 || s.NextAtLeast(130) != -1 {
		t.Fatal("single high member not found")
	}
	s.Remove(129)
	if s.NextAtLeast(0) != -1 || s.Has(129) {
		t.Fatal("Remove did not empty the set")
	}
	s.Remove(129) // idempotent
	if s.NextAtLeast(0) != -1 {
		t.Fatal("second Remove changed the set")
	}
	var zero Set
	for _, z := range []Set{zero, New(0), New(-3)} {
		if z.NextAtLeast(0) != -1 || z.NextAtLeast(-3) != -1 || z.Has(0) {
			t.Fatal("a zero-capacity set has a member")
		}
	}
}

// TestCarveSetsAreIndependent carves three sets from one allocation and
// checks that each holds its own members, at word boundaries too, and
// that Words exposes exactly the members as bits.
func TestCarveSetsAreIndependent(t *testing.T) {
	var a, b, c Set
	Carve(130, &a, &b, &c)
	a.Add(0)
	b.Add(63)
	b.Add(64)
	c.Add(129)
	for _, tc := range []struct {
		s    Set
		name string
		want []uint64
	}{
		{a, "a", []uint64{1, 0, 0}},
		{b, "b", []uint64{1 << 63, 1, 0}},
		{c, "c", []uint64{0, 0, 2}},
	} {
		got := tc.s.Words()
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d words, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: word %d = %#x, want %#x", tc.name, i, got[i], tc.want[i])
			}
		}
	}
	if a.Has(129) || c.Has(0) || a.NextAtLeast(1) != -1 {
		t.Fatal("carved sets share members")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	a.Add(130)
}

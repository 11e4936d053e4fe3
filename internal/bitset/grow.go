package bitset

// Grow is a bit set over an index space that expands during a run — the
// graph's register def/use summaries use it, and register renaming
// allocates fresh registers mid-schedule. The zero value is an empty
// set; Add grows the backing storage on demand, Has answers false for
// any index beyond it, so readers never observe a partially grown set.
//
// Unlike Set, Grow methods use pointer receivers: the words slice is
// reallocated by growth, and sharing a Grow by value would alias stale
// storage.
type Grow struct {
	words []uint64
}

// Has reports whether i is a member. Negative or beyond-capacity
// indices are never members.
func (s *Grow) Has(i int) bool {
	w := uint(i) >> 6 // negative i wraps far past any real capacity
	if w >= uint(len(s.words)) {
		return false
	}
	return s.words[w]&(1<<(uint(i)&63)) != 0
}

// Add inserts i, growing the set as needed. Negative i panics.
func (s *Grow) Add(i int) {
	if i < 0 {
		panic("bitset: Grow.Add of negative index")
	}
	w := i >> 6
	if w >= len(s.words) {
		grown := make([]uint64, w+1)
		copy(grown, s.words)
		s.words = grown
	}
	s.words[w] |= 1 << (uint(i) & 63)
}

// Reset clears every bit, keeping the storage for reuse.
func (s *Grow) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Equal reports whether s and t hold exactly the same members
// (capacities may differ).
func (s *Grow) Equal(t *Grow) bool {
	a, b := s.words, t.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, w := range b {
		if a[i] != w {
			return false
		}
	}
	for _, w := range a[len(b):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Words returns the number of backing words (capacity bookkeeping for
// arena-sized clones).
func (s *Grow) Words() int { return len(s.words) }

// SetWords points s at the given backing storage and copies t's content
// into it. The slice must hold at least t.Words() words. Graph cloning
// uses it to carve every cloned summary out of one arena allocation.
func (s *Grow) SetWords(backing []uint64, t *Grow) {
	copy(backing, t.words)
	s.words = backing[:len(t.words):len(t.words)]
}

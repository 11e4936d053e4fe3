// Package bitset provides the dense bit set the scheduler hot loops are
// built on: membership over the dense operation index space
// (ir.Op.Index), and ordered search over core's candidate rank space.
// Membership queries are O(1) loads, NextAtLeast is a word scan, and
// nothing allocates after construction, which is one slice allocation
// (one for a whole group of sets built by Carve).
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity zero; use New for a sized one.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set able to hold members 0..n-1.
func New(n int) Set {
	if n < 0 {
		n = 0
	}
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// Carve makes each of sets an empty set able to hold members 0..n-1,
// all of them backed by one allocation.
func Carve(n int, sets ...*Set) {
	n = max(n, 0)
	w := (n + 63) / 64
	words := make([]uint64, w*len(sets))
	for i, s := range sets {
		*s = Set{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
	}
}

// Words returns the set's words: member i is bit i&63 of word i>>6, and
// the bits at or past the capacity are zero. The slice aliases the set,
// so an audit can combine several sets a word at a time.
func (s Set) Words() []uint64 { return s.words }

// Has reports whether i is a member. Out-of-range i is never a member.
func (s Set) Has(i int) bool {
	if uint(i) >= uint(s.n) {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Add inserts i. Out-of-range i panics (callers own the index space).
func (s Set) Add(i int) {
	if uint(i) >= uint(s.n) {
		panic("bitset: Add out of range")
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Remove deletes i if present.
func (s Set) Remove(i int) {
	if uint(i) >= uint(s.n) {
		return
	}
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// NextAtLeast returns the smallest member >= i, or -1 when there is
// none. Negative i is treated as 0. It scans word by word from i's
// word, so it costs one load per 64 positions it skips.
func (s Set) NextAtLeast(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	w := i >> 6
	word := s.words[w] &^ (1<<(uint(i)&63) - 1)
	for word == 0 {
		if w++; w == len(s.words) {
			return -1
		}
		word = s.words[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// Package bitset provides the dense bit-set primitives the scheduler
// hot loops are built on: membership sets over the dense operation index
// space (ir.Op.Index), growable register sets, and hierarchical sets with
// ordered search. All queries are O(1) loads with no allocation;
// construction is one slice allocation.
package bitset

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

package graph

// edge is one predecessor record: a predecessor node plus the number
// of parallel leaf edges from it.
type edge struct {
	n     *Node
	count int32
}

// inlineEdges is the number of predecessor records stored directly in
// the node. Chain nodes have one predecessor, so the inline array
// covers the common case; nodes with more predecessors spill into the
// overflow slice.
const inlineEdges = 2

// edgeSet is a small multiset of predecessor nodes, the compact
// replacement for a graph-level map[*Node]map[*Node]int predecessor
// table. Entries are kept in first-insertion order and removed
// (order-preserving) when their edge count drops to zero, so iteration
// never sees stale neighbours. Lookup is a linear scan — the sets hold
// a handful of entries, so the scan beats any map on both time and
// allocation.
type edgeSet struct {
	inline [inlineEdges]edge
	extra  []edge
	n      int
}

// at returns the i-th live entry (i < s.n).
func (s *edgeSet) at(i int) *edge {
	if i < inlineEdges {
		return &s.inline[i]
	}
	return &s.extra[i-inlineEdges]
}

// add records one more edge to m.
func (s *edgeSet) add(m *Node) {
	for i := 0; i < s.n; i++ {
		if e := s.at(i); e.n == m {
			e.count++
			return
		}
	}
	if s.n < inlineEdges {
		s.inline[s.n] = edge{n: m, count: 1}
	} else {
		s.extra = append(s.extra[:s.n-inlineEdges], edge{n: m, count: 1})
	}
	s.n++
}

// remove drops one edge to m, deleting the entry when its count reaches
// zero. It reports whether an edge to m existed.
func (s *edgeSet) remove(m *Node) bool {
	for i := 0; i < s.n; i++ {
		e := s.at(i)
		if e.n != m {
			continue
		}
		e.count--
		if e.count > 0 {
			return true
		}
		for j := i; j < s.n-1; j++ {
			*s.at(j) = *s.at(j + 1)
		}
		s.n--
		*s.at(s.n) = edge{} // release the node pointer
		if s.n > inlineEdges {
			s.extra = s.extra[:s.n-inlineEdges]
		} else {
			s.extra = s.extra[:0]
		}
		return true
	}
	return false
}

// total returns the summed edge count (parallel edges included).
func (s *edgeSet) total() int {
	t := 0
	for i := 0; i < s.n; i++ {
		t += int(s.at(i).count)
	}
	return t
}

// single returns the unique neighbour when the set holds exactly one
// edge in total, else nil.
func (s *edgeSet) single() *Node {
	if s.n == 1 && s.at(0).count == 1 {
		return s.at(0).n
	}
	return nil
}

// visit calls f for every distinct neighbour with its edge count, in
// insertion order, stopping early when f returns false. Allocation-free.
func (s *edgeSet) visit(f func(*Node, int32) bool) {
	for i := 0; i < s.n; i++ {
		e := s.at(i)
		if !f(e.n, e.count) {
			return
		}
	}
}

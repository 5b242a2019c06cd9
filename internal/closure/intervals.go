// Package closure implements Inferray's transitive-closure stage (§4.1
// of the paper) with Nuutila's algorithm: Tarjan strong-component
// detection, a quotient (condensation) graph processed in reverse
// topological order, and reachable sets represented as compact interval
// sets in the style of Cotton's implementation. One build, Condense,
// serves both Close and the hierarchy interval index: every strong
// component owns one contiguous block of a dense preorder rank space, so
// the reach sets stay short runs without splitting the graph into
// connected components first.
package closure

// IntervalSet is a set of int32 values stored as a sorted list of
// disjoint, non-adjacent, inclusive intervals. Under dense numbering the
// reachable sets of a condensation are long runs, so the interval
// representation is far smaller than the worst-case quadratic bitmap and
// unions are cheap linear merges. The zero value is an empty set.
type IntervalSet struct {
	// iv holds [lo0,hi0, lo1,hi1, …] with lo ≤ hi, strictly increasing,
	// and hi_k + 1 < lo_{k+1} (adjacent runs are coalesced).
	iv []int32
}

// Empty reports whether the set has no elements.
func (s *IntervalSet) Empty() bool { return len(s.iv) == 0 }

// Intervals returns the number of stored intervals (compactness metric).
func (s *IntervalSet) Intervals() int { return len(s.iv) / 2 }

// Cardinality returns the number of elements in the set.
func (s *IntervalSet) Cardinality() int {
	n := 0
	for i := 0; i < len(s.iv); i += 2 {
		n += int(s.iv[i+1]-s.iv[i]) + 1
	}
	return n
}

// Contains reports whether x is in the set.
func (s *IntervalSet) Contains(x int32) bool {
	lo, hi := 0, len(s.iv)/2
	for lo < hi {
		mid := (lo + hi) / 2
		if s.iv[2*mid+1] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.iv)/2 && s.iv[2*lo] <= x
}

// AddRange inserts the inclusive range [lo, hi].
func (s *IntervalSet) AddRange(lo, hi int32) {
	if lo > hi {
		return
	}
	other := IntervalSet{iv: []int32{lo, hi}}
	s.UnionWith(&other)
}

// UnionWith adds every element of o to s using a linear interval merge.
func (s *IntervalSet) UnionWith(o *IntervalSet) {
	if len(o.iv) == 0 {
		return
	}
	if len(s.iv) == 0 {
		s.iv = append(s.iv[:0], o.iv...)
		return
	}
	out := make([]int32, 0, len(s.iv)+len(o.iv))
	i, j := 0, 0
	var curLo, curHi int32
	have := false
	push := func(lo, hi int32) {
		if !have {
			curLo, curHi, have = lo, hi, true
			return
		}
		if lo <= curHi+1 { // overlap or adjacency: coalesce
			if hi > curHi {
				curHi = hi
			}
			return
		}
		out = append(out, curLo, curHi)
		curLo, curHi = lo, hi
	}
	for i < len(s.iv) || j < len(o.iv) {
		switch {
		case j >= len(o.iv) || (i < len(s.iv) && s.iv[i] <= o.iv[j]):
			push(s.iv[i], s.iv[i+1])
			i += 2
		default:
			push(o.iv[j], o.iv[j+1])
			j += 2
		}
	}
	out = append(out, curLo, curHi)
	s.iv = out
}

// ForEach calls fn for every element in ascending order.
func (s *IntervalSet) ForEach(fn func(int32)) {
	for i := 0; i < len(s.iv); i += 2 {
		for x := s.iv[i]; ; x++ {
			fn(x)
			if x == s.iv[i+1] {
				break
			}
		}
	}
}

// Spans returns the stored intervals as the flat read-only list
// [lo0,hi0, lo1,hi1, …], ascending, for callers that walk or probe the
// intervals in a loop of their own.
func (s *IntervalSet) Spans() []int32 { return s.iv }

// Clone returns an independent copy of the set.
func (s *IntervalSet) Clone() *IntervalSet {
	c := &IntervalSet{}
	if len(s.iv) > 0 {
		c.iv = append(make([]int32, 0, len(s.iv)), s.iv...)
	}
	return c
}

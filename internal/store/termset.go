package store

import "math/bits"

// TermSet is a set of term IDs: one bit per ID of the dictionary's
// IDRange (dictionary.IDRange), the dense span the paper's numbering
// makes cheap to index (§5.1). Its owner keeps one and reuses it, so a
// caller that needs a few terms as a set pays for what it adds, not for
// the dictionary: Reset and Clear zero only the words an Add touched,
// and since every bit is clear between uses, a moved ID range — new
// properties lower its low end, new resources raise its high end —
// costs a re-slice at most. The zero TermSet holds no memory until its
// first Reset.
type TermSet struct {
	lo    uint64   // the lowest ID of the range
	words []uint64 // bit x-lo is set for member x; every bit clear between uses

	// touched[:n] are the words an Add made non-zero. It has a slot per
	// word and one more, so Add writes the next slot unconditionally and
	// only counts it: a test and branch per Add would be unpredictable.
	touched []uint32
	n       int
}

// Reset empties the set and sizes it to the n IDs [lo, lo+n), the
// dictionary's IDRange at the time of use. The words past the old
// length are clear, so a longer list is a re-slice within the capacity,
// else a fresh list with room for the dictionary to grow.
func (s *TermSet) Reset(lo uint64, n int) {
	s.Clear()
	s.lo = lo
	if need := (n + 63) / 64; need <= cap(s.words) {
		s.words, s.touched = s.words[:need], s.touched[:need+1]
	} else {
		s.words = make([]uint64, need, need+need/8)
		s.touched = make([]uint32, need+1, cap(s.words)+1)
	}
}

// Clear empties the set, keeping its range.
func (s *TermSet) Clear() {
	for _, w := range s.touched[:s.n] {
		s.words[w] = 0
	}
	s.n = 0
}

// Add puts x in the set and reports whether it was absent. x must lie
// in the range.
func (s *TermSet) Add(x uint64) bool {
	i := x - s.lo
	old := s.words[i>>6]
	s.words[i>>6] = old | 1<<(i&63)
	s.touched[s.n] = uint32(i >> 6)
	if old == 0 {
		s.n++
	}
	return old>>(i&63)&1 == 0
}

// AddKeys adds p[0], p[2], …, the keys of a flat pair list (given p[1:],
// its payloads): Add over a list, with the touched count held in a local
// instead of stored through s per term, which chains each add to the last.
func (s *TermSet) AddKeys(p []uint64) {
	lo, words, touched, n := s.lo, s.words, s.touched, s.n
	for i := 0; i < len(p); i += 2 {
		x := p[i] - lo
		old := words[x>>6]
		words[x>>6] = old | 1<<(x&63)
		touched[n] = uint32(x >> 6)
		if old == 0 {
			n++
		}
	}
	s.n = n
}

// Has reports whether x is in the set.
func (s *TermSet) Has(x uint64) bool { return has(s.words, x-s.lo) }

// has reports whether bit i of words is set, false past them.
func has(words []uint64, i uint64) bool {
	return i>>6 < uint64(len(words)) && words[i>>6]>>(i&63)&1 != 0
}

// Each calls fn for every member, in no particular order.
func (s *TermSet) Each(fn func(x uint64)) {
	for _, w := range s.touched[:s.n] {
		for b := s.words[w]; b != 0; b &= b - 1 {
			fn(s.lo + uint64(w)<<6 + uint64(bits.TrailingZeros64(b)))
		}
	}
}

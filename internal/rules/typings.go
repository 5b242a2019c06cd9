package rules

import (
	"cmp"
	"slices"

	"inferray/internal/store"
)

// This file emits the γ typings of PRP-DOM and PRP-RNG once each. A
// typing ⟨c, t⟩ says that every instance in one column of property table
// t — its subjects for a domain, its objects for a range — is of type c.
// Several typings of one class overlap wherever their tables share
// instances, and a table's object column repeats an object once per
// subject, so emitting every instance of every typing hands the merge the
// same ⟨x, c⟩ many times over, each copy to be sorted and thrown away
// (DESIGN.md §2 "Emitting once").

// typing is one ⟨class, instance table⟩ pair of a γ application.
type typing struct {
	cls   uint64
	pidx  int
	pairs []uint64 // the table's ⟨s,o⟩-sorted pairs
}

// denseShare sets when a γ application deduplicates through per-term
// stamps rather than by sorting each class's instances: once the pairs
// that need it reach 1/denseShare of the dictionary's terms. Stamps cost
// a 4-byte word per term, allocated and cleared per application; sorting
// costs O(k log k) for k instances and allocates in proportion to them.
// Over 300 k terms BenchmarkTypingsDedup has sorting faster on both
// sides at 1/128 and the stamps faster on both at 1/32; at 1/64 sorting
// wins a domain by 1.7× and the stamps a range by 2× (EXPERIMENTS.md
// "Emitting once").
const denseShare = 64

// emitTypings appends ⟨x, c⟩ to out for every instance x of every typing,
// each pair once, into a list reserved for exactly that many. side
// selects the instance column: 0 for subjects, 1 for objects. Every
// delta table must be a subset of Main's table of the same property.
func emitTypings(c *Context, work []typing, side int, out *store.Table) {
	slices.SortFunc(work, func(a, b typing) int {
		return cmp.Or(cmp.Compare(a.cls, b.cls), cmp.Compare(a.pidx, b.pidx))
	})
	var groups [][]typing
	set := instanceSet{side: side, base: c.TermBase}
	scratch := 0 // pairs of the groups that need scratch to deduplicate
	for lo := 0; lo < len(work); {
		// A class's group, compacted in place: every write lands on an
		// entry already read.
		g := work[lo : lo+1]
		hi := lo + 1
		for ; hi < len(work) && work[hi].cls == work[lo].cls; hi++ {
			if last := &g[len(g)-1]; work[hi].pidx == last.pidx {
				// Main's and the delta's table of one property: the larger
				// is Main's, which holds the other.
				if len(work[hi].pairs) > len(last.pairs) {
					*last = work[hi]
				}
				continue
			}
			g = append(g, work[hi])
		}
		groups = append(groups, g)
		if set.needsScratch(g) {
			for _, w := range g {
				scratch += len(w.pairs) / 2
			}
		}
		lo = hi
	}
	if scratch*denseShare >= c.Terms {
		set.terms = c.Terms
	}
	n := 0
	for _, g := range groups {
		n += set.distinct(g, nil)
	}
	out.Reserve(n)
	for _, g := range groups {
		set.distinct(g, out)
	}
}

// instanceSet finds the distinct instances of one class group at a time.
type instanceSet struct {
	side int
	base uint64 // the lowest ID in use, Context.TermBase

	// terms > 0 selects the stamps: at[x-base] == epoch marks x as seen
	// in the current group, so a new group is one increment. The array
	// is allocated by the first group that needs it and dies with the
	// rule application.
	terms int
	at    []uint32
	epoch uint32

	sorted []uint64 // otherwise, the sort's working list
}

// needsScratch reports whether group g can repeat an instance without
// its repeats being adjacent: only one table's sorted subject column
// cannot.
func (s *instanceSet) needsScratch(g []typing) bool {
	return len(g) > 1 || s.side != 0
}

// distinct returns how many distinct instances group g types and, when
// out is not nil, appends ⟨x, class⟩ for each of them.
func (s *instanceSet) distinct(g []typing, out *store.Table) int {
	cls, n := g[0].cls, 0
	switch {
	case !s.needsScratch(g):
		p := g[0].pairs
		for j := 0; j < len(p); j += 2 {
			if j == 0 || p[j] != p[j-2] {
				n++
				if out != nil {
					out.Append(p[j], cls)
				}
			}
		}
	case s.terms > 0:
		if s.at == nil || s.epoch == ^uint32(0) {
			s.at, s.epoch = make([]uint32, s.terms), 0
		}
		s.epoch++
		for _, w := range g {
			for j := s.side; j < len(w.pairs); j += 2 {
				x := w.pairs[j]
				if at := &s.at[x-s.base]; *at != s.epoch {
					*at = s.epoch
					n++
					if out != nil {
						out.Append(x, cls)
					}
				}
			}
		}
	default:
		xs := s.sorted[:0]
		for _, w := range g {
			for j := s.side; j < len(w.pairs); j += 2 {
				xs = append(xs, w.pairs[j])
			}
		}
		slices.Sort(xs)
		for i, x := range xs {
			if i == 0 || x != xs[i-1] {
				n++
				if out != nil {
					out.Append(x, cls)
				}
			}
		}
		s.sorted = xs
	}
	return n
}

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

// emitTypings appends ⟨x, c⟩ to out for every instance x of every typing,
// each pair once, into a list reserved for exactly that many. side
// selects the instance column: 0 for subjects, 1 for objects. Every
// delta table must be a subset of Main's table of the same property.
func emitTypings(c *Context, work []typing, side int, out *store.Table) {
	slices.SortFunc(work, func(a, b typing) int {
		return cmp.Or(cmp.Compare(a.cls, b.cls), cmp.Compare(a.pidx, b.pidx))
	})
	var groups [][]typing
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
		lo = hi
	}
	set, n := c.Terms(), 0
	for _, g := range groups {
		n += distinct(set, g, side, nil)
	}
	out.Reserve(n)
	for _, g := range groups {
		distinct(set, g, side, out)
	}
}

// distinct returns how many distinct instances class group g types, in
// column side of its tables, and, when out is not nil, appends ⟨x,
// class⟩ for each of them. One table's sorted subject column repeats an
// instance only adjacently; any other group is deduplicated in set,
// which is empty on entry and left empty.
func distinct(set *store.TermSet, g []typing, side int, out *store.Table) int {
	cls, n := g[0].cls, 0
	adjacent := len(g) == 1 && side == 0
	for _, w := range g {
		for j := side; j < len(w.pairs); j += 2 {
			x := w.pairs[j]
			if adjacent && j > 0 && x == w.pairs[j-2] || !adjacent && !set.Add(x) {
				continue
			}
			n++
			if out != nil {
				out.Append(x, cls)
			}
		}
	}
	set.Clear()
	return n
}

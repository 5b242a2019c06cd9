package standin

// NaiveTransitiveClosure computes the transitive closure of a flat
// ⟨s,o⟩ pair list by iterative rule application: each round joins the
// frontier with the full edge set and eliminates duplicates against
// everything derived so far, until a round adds nothing. This is the
// strategy whose per-iteration duplicate explosion motivates Inferray's
// dedicated Nuutila stage (§4.1); Table 4 compares the two.
//
// It returns the closure as a pair list (input edges included) plus the
// total number of candidate pairs generated before duplicate
// elimination — the "wasted work" metric.
func NaiveTransitiveClosure(pairs []uint64) (closed []uint64, generated int) {
	type pair struct{ s, o uint64 }
	all := make(map[pair]struct{}, len(pairs)/2)
	succ := make(map[uint64][]uint64)
	var frontier []pair
	for i := 0; i < len(pairs); i += 2 {
		p := pair{pairs[i], pairs[i+1]}
		if _, ok := all[p]; ok {
			continue
		}
		all[p] = struct{}{}
		succ[p.s] = append(succ[p.s], p.o)
		frontier = append(frontier, p)
	}

	for len(frontier) > 0 {
		var next []pair
		for _, e := range frontier {
			for _, o2 := range succ[e.o] {
				generated++
				np := pair{e.s, o2}
				if _, ok := all[np]; ok {
					continue
				}
				all[np] = struct{}{}
				next = append(next, np)
			}
		}
		// New successors become visible to later rounds.
		for _, np := range next {
			succ[np.s] = append(succ[np.s], np.o)
		}
		frontier = next
	}

	closed = make([]uint64, 0, 2*len(all))
	for p := range all {
		closed = append(closed, p.s, p.o)
	}
	return closed, generated
}

package hierarchy

import "slices"

// This file holds the run primitives: what the engine asks of a whole
// class run — the objects of one subject's rdf:type run, or of one
// property's rdfs:domain / rdfs:range run — in one call instead of a
// Subsumes probe per pair of classes. A run is passed as the flat ⟨s,o⟩
// slice of a subject run (classes at the odd positions), every class is
// resolved to its (rank, component) once, and the question is settled in
// rank space. The working memory is the caller's, so a sweep over a
// table allocates nothing per run.

// resolve returns the preorder rank and strong component of a class, or
// ok false when the class has no hierarchy edge.
func (r *Relation) resolve(id uint64) (rank, scc int32, ok bool) {
	l, ok := r.Lookup(id)
	if !ok {
		return 0, 0, false
	}
	return r.Rank[l], r.SCC[l], true
}

// RunScratch is the working memory of Shadowed. The zero value is ready;
// it is not safe for concurrent use.
type RunScratch struct {
	ranks  []int32 // per class of the run: its rank, -1 outside the hierarchy
	sccs   []int32 // per class of the run: its component (valid when ranks[i] ≥ 0)
	sorted []int32 // the run's ranks, ascending
	mask   []bool
}

// Shadowed settles one class run: mask[i] reports that the run's i-th
// class d is shadowed — another class c of the run lies strictly below d,
// or shares d's subsumption cycle and has the smaller id. The stored pair
// of a shadowed class is what the interval index already serves from the
// class that shadows it. The result is nil when nothing is shadowed (the
// common case); otherwise it is valid until the next call with sc.
//
// d is shadowed iff the run's rank just before rank(d) lies in d's own
// component — a component's block lists its members in ascending id
// order, so that predecessor is a cycle mate with a smaller id, and the
// block's first member present in the run is the one representative left
// standing — or some rank of the run falls inside an interval of d's
// strict descendant set: one binary search of the sorted ranks per
// interval, O(k log k) for a run of k classes over a tree.
func (r *Relation) Shadowed(run []uint64, sc *RunScratch) []bool {
	return r.shadowed(run, true, sc)
}

// StrictlyShadowed is Shadowed without the cycle mates: mask[i] reports
// only that another class of the run lies strictly below the i-th, so
// every member of a cycle with nothing of the run strictly below it
// stands. It is the test to use where the class doing the skipped one's
// work must not depend on it: an expansion up the hierarchy can derive a
// cycle mate from the skipped class, never a class strictly below it.
func (r *Relation) StrictlyShadowed(run []uint64, sc *RunScratch) []bool {
	return r.shadowed(run, false, sc)
}

// shadowed is Shadowed, counting cycle mates when mates is set.
func (r *Relation) shadowed(run []uint64, mates bool, sc *RunScratch) []bool {
	k := len(run) / 2
	if k < 2 || len(r.IDs) == 0 {
		return nil
	}
	ranks, sccs, sorted := sc.ranks[:0], sc.sccs[:0], sc.sorted[:0]
	for i := 1; i < len(run); i += 2 {
		rank, scc, ok := r.resolve(run[i])
		if !ok {
			rank = -1
		} else {
			sorted = append(sorted, rank)
		}
		ranks, sccs = append(ranks, rank), append(sccs, scc)
	}
	sc.ranks, sc.sccs, sc.sorted = ranks, sccs, sorted
	if len(sorted) < 2 {
		return nil
	}
	slices.Sort(sorted)

	var mask []bool
	for i, rank := range ranks {
		if rank < 0 || !r.shadowedAt(rank, sccs[i], sorted, mates) {
			continue
		}
		if mask == nil {
			mask = append(sc.mask[:0], make([]bool, k)...)
			sc.mask = mask
		}
		mask[i] = true
	}
	return mask
}

// shadowedAt reports whether the class at rank, of component scc, is
// shadowed by one of the sorted ranks; a cycle mate counts when mates is
// set.
func (r *Relation) shadowedAt(rank, scc int32, sorted []int32, mates bool) bool {
	if mates && r.Size[scc] > 1 {
		if p, _ := slices.BinarySearch(sorted, rank); p > 0 && sorted[p-1] >= r.First[scc] {
			return true
		}
	}
	iv := r.down[scc].Spans()
	for j := 0; j < len(iv); j += 2 {
		if p, _ := slices.BinarySearch(sorted, iv[j]); p < len(sorted) && sorted[p] <= iv[j+1] {
			return true
		}
	}
	return false
}

// stamps marks ranks as counted: at[rank] == epoch means "seen since the
// last reset", so a reset is one increment instead of a clear.
type stamps struct {
	at    []uint32
	epoch uint32
}

// reset forgets every mark, sizing the array for n ranks on first use.
func (s *stamps) reset(n int) {
	if len(s.at) != n || s.epoch == ^uint32(0) {
		s.at, s.epoch = make([]uint32, n), 0
	}
	s.epoch++
}

// mark stamps the inclusive rank range and returns how many of its ranks
// were not stamped before.
func (s *stamps) mark(lo, hi int32) int {
	n := 0
	seg := s.at[lo : hi+1]
	for i, at := range seg {
		if at != s.epoch {
			seg[i] = s.epoch
			n++
		}
	}
	return n
}

// stampVisible stamps the visible classes of the class at rank, of
// component scc — itself, its cycle mates, its strict ancestors — and
// returns how many were new to s. A class whose own rank is already
// stamped adds nothing: whatever stamped it (the class itself, a cycle
// mate, or a class below it) stamped everything above it too.
func (r *Relation) stampVisible(rank, scc int32, s *stamps) int {
	if s.at[rank] == s.epoch {
		return 0
	}
	n := 0
	if r.Cyclic[scc] {
		n = s.mark(r.First[scc], r.First[scc]+r.Size[scc]-1)
	} else {
		n = s.mark(rank, rank)
	}
	iv := r.Up[scc].Spans()
	for j := 0; j < len(iv); j += 2 {
		n += s.mark(iv[j], iv[j+1])
	}
	return n
}

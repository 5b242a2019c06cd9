package store

import (
	"math/bits"
	"slices"

	"inferray/internal/sorting"
)

// MergeRound performs the per-iteration update of Figure 5 for every
// property the rule outputs wrote to: the property's inferred pairs are
// gathered from outs, sorted and deduplicated, then merged into main
// while the pairs not already in main are collected into the returned
// delta store ("new" in Algorithm 1). Main's tables remain sorted and
// duplicate-free.
//
// Figure 5's allocate-and-merge, with the ⟨o,s⟩ cache cleared when new
// triples arrive (§4.2), is the bulk rule. A table whose inferred list is
// small against it (spliceable) is maintained in place instead: the
// fresh pairs are found by galloping and spliced in, marks and a present
// cache with them (Table.splice).
//
// asserted says the outputs are explicitly loaded triples (a staged
// batch) rather than derivations: every pair of theirs — fresh, or
// already in main as a derivation — gets main's asserted mark. Marking a
// pair that was present changes no content, so it moves no version.
// Either way the marks main already holds follow their pairs through
// the merge.
//
// The delta is the whole description of the round: its non-empty tables
// are exactly the main tables that received fresh pairs (and whose
// version moved, by one), which is the signal the reasoner's scheduler
// keys on.
//
// The outputs are borrowed, not consumed: a table only one output wrote
// is normalized in place and merged straight from its buffer, several
// are concatenated into one exact-sized buffer first, and neither main
// nor the delta keeps a reference into an output afterwards.
//
// Each property is independent, so tables are merged on the worker pool
// when parallel is true (§4.3).
func MergeRound(main *Store, parallel, asserted bool, outs ...*Store) *Store {
	slots := len(main.tables)
	for _, out := range outs {
		slots = max(slots, len(out.tables))
	}
	main.Grow(slots)
	delta := New(slots)

	work := make([]int, 0, slots)
	for pidx := 0; pidx < slots; pidx++ {
		for _, out := range outs {
			if t := out.Table(pidx); t != nil && !t.Empty() {
				main.Ensure(pidx)
				work = append(work, pidx)
				break
			}
		}
	}

	RunPool(parallel, len(work), func(k int) {
		pidx := work[k]
		inf, owned := gather(outs, pidx)
		mt := main.tables[pidx]
		var fresh []uint64
		if spliceable(mt.pairs, inf) {
			fresh = mt.splice(inf)
			main.count(mergeSplice)
		} else {
			fresh = mt.rebuild(inf, owned)
			main.count(mergeRebuild)
		}
		if len(fresh) > 0 {
			delta.tables[pidx] = &Table{pairs: fresh}
		}
		if asserted {
			mt.Mark(inf)
		}
	})
	return delta
}

// Both merge paths write the table's fields directly, which is safe:
// MergeRound runs only inside a materialization, which excludes engine
// readers entirely, and the pool workers each own a distinct table. Only
// the ⟨o,s⟩-cache fields move under osMu (settleOS), because table
// readers — which may resume the instant the materialization's write
// lock is released — synchronize on that lock alone inside OS().

// rebuild merges inf into the table the way Figure 5 draws it — main and
// delta reallocated, the cache dropped — and returns the fresh pairs.
func (t *Table) rebuild(inf []uint64, owned bool) []uint64 {
	if len(t.pairs) == 0 && !owned {
		inf = slices.Clone(inf) // mergeSorted hands inf to the delta as is
	}
	merged, fresh := mergeSorted(t.pairs, inf)
	if len(fresh) == 0 {
		return nil
	}
	if t.marks != nil {
		t.marks = shiftMarks(t.marks, t.pairs, fresh, len(merged)/2)
	}
	t.pairs = merged
	t.dirty = false
	t.version++
	t.settleOS(nil)
	return fresh
}

// splice merges a small inf into the table in place and returns the
// fresh pairs, in a buffer of their own: they are located by galloping,
// the pair list grows once and only the pairs behind the first of them
// move, the marks shift from the first affected word, and a present
// ⟨o,s⟩ cache receives the same pairs, swapped and sorted, the same way.
func (t *Table) splice(inf []uint64) []uint64 {
	fresh, at := absent(t.pairs, inf)
	if len(fresh) == 0 {
		return nil
	}
	n := t.Size()
	t.pairs = spliceIn(t.pairs, fresh, at)
	if t.marks != nil {
		for j := range at {
			at[j] += j // where fresh[j] landed
		}
		t.marks = openBits(t.marks, n, at)
	}
	t.version++
	t.settleOS(func(os []uint64) []uint64 {
		sw := swapSorted(fresh)
		return spliceIn(os, sw, seek(os, sw))
	})
	return fresh
}

// gather returns the sorted, duplicate-free pairs outs hold for one
// property. A single contributor is normalized in place and its buffer
// returned as is (owned false: it still belongs to the output store);
// several are concatenated into one exact-sized buffer the caller owns.
func gather(outs []*Store, pidx int) (inf []uint64, owned bool) {
	var only *Table
	n, contributors := 0, 0
	for _, out := range outs {
		if t := out.Table(pidx); t != nil && !t.Empty() {
			only = t
			n += len(t.pairs)
			contributors++
		}
	}
	if contributors == 1 {
		only.Normalize()
		return only.pairs, false
	}
	buf := make([]uint64, 0, n)
	for _, out := range outs {
		if t := out.Table(pidx); t != nil {
			buf = append(buf, t.pairs...)
		}
	}
	return sorting.SortPairs(buf, true), true
}

// mergeSorted merges two ⟨s,o⟩-sorted duplicate-free pair lists. It
// returns the union (sorted, duplicate-free) and the pairs of inf that
// were not present in main ("keep new triples & skip duplicates",
// Figure 5). When inf adds nothing, merged aliases main and fresh is nil.
// merged and fresh never share a backing array: merged becomes the main
// table's pairs — which later appends and in-place normalizations may
// rewrite — while fresh becomes a delta table still scanned by the
// scheduler after this round, so aliasing the two corrupts the delta.
// merged keeps no dead capacity: it stays with the table for good, while
// a round that re-derives what main holds sizes it for both lists.
func mergeSorted(main, inf []uint64) (merged, fresh []uint64) {
	if len(inf) == 0 {
		return main, nil
	}
	if len(main) == 0 {
		// Everything is fresh. Main gets an exact-size copy; inf (often a
		// trimmed subslice of a larger sort buffer, with spare capacity)
		// goes to the delta.
		return slices.Clone(inf), inf
	}
	merged = make([]uint64, 0, len(main)+len(inf))
	fresh = make([]uint64, 0, len(inf))
	i, j := 0, 0
	for i < len(main) && j < len(inf) {
		ms, mo := main[i], main[i+1]
		is, io := inf[j], inf[j+1]
		switch {
		case ms < is || (ms == is && mo < io):
			merged = append(merged, ms, mo)
			i += 2
		case ms == is && mo == io:
			merged = append(merged, ms, mo)
			i += 2
			j += 2
		default:
			merged = append(merged, is, io)
			fresh = append(fresh, is, io)
			j += 2
		}
	}
	for ; i < len(main); i += 2 {
		merged = append(merged, main[i], main[i+1])
	}
	for ; j < len(inf); j += 2 {
		merged = append(merged, inf[j], inf[j+1])
		fresh = append(fresh, inf[j], inf[j+1])
	}
	if len(fresh) == 0 {
		return main, nil
	}
	if cap(merged)-len(merged) > len(merged)/8 {
		merged = slices.Clone(merged)
	}
	return merged, fresh
}

// shiftMarks carries a table's marks through a merge: the pair at index
// i of main moves up by the number of fresh pairs that sort below it.
// Only the set bits are visited.
func shiftMarks(marks, main, fresh []uint64, n int) []uint64 {
	out := make([]uint64, (n+63)/64)
	j := 0
	for w, word := range marks {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			s, o := main[2*i], main[2*i+1]
			for j < len(fresh) && (fresh[j] < s || (fresh[j] == s && fresh[j+1] < o)) {
				j += 2
			}
			setBit(out, i+j/2)
		}
	}
	return out
}

// Union merges every table of src into dst (both normalized afterwards).
// The reasoner folds one delta into another with it — a guard-trip
// expansion or a rederivation pass into the running round.
func Union(dst, src *Store) {
	src.ForEachTable(func(pidx int, t *Table) bool {
		dst.Ensure(pidx).AppendPairs(t.RawPairs())
		return true
	})
	dst.Normalize()
}

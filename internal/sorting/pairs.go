// Package sorting implements the key/value pair sorts at the core of
// Inferray (§5 of the paper): a counting sort for pairs (Algorithm 2)
// with in-pass duplicate elimination, an adaptive MSD radix sort
// ("MSDA"), generic comparison- and LSD-radix baselines for Table 1, and
// the operating-range selector (§5.4) that picks between them.
//
// Throughout the package a pair list is a flat []uint64 of even length:
// subjects (sort keys) on even indices, objects (values) on odd indices,
// exactly the property-table layout of internal/store.
package sorting

import "sort"

// PairLess reports whether pair i sorts strictly before pair j in ⟨s,o⟩
// order.
func PairLess(pairs []uint64, i, j int) bool {
	si, sj := pairs[2*i], pairs[2*j]
	if si != sj {
		return si < sj
	}
	return pairs[2*i+1] < pairs[2*j+1]
}

// IsSortedPairs reports whether the pair list is sorted in ⟨s,o⟩ order.
func IsSortedPairs(pairs []uint64) bool {
	for i := 2; i < len(pairs); i += 2 {
		if pairs[i] < pairs[i-2] || (pairs[i] == pairs[i-2] && pairs[i+1] < pairs[i-1]) {
			return false
		}
	}
	return true
}

// DedupSortedPairs removes duplicate pairs from a ⟨s,o⟩-sorted pair list
// in place and returns the shortened slice.
func DedupSortedPairs(pairs []uint64) []uint64 {
	if len(pairs) <= 2 {
		return pairs
	}
	w := 2
	for r := 2; r < len(pairs); r += 2 {
		if pairs[r] == pairs[w-2] && pairs[r+1] == pairs[w-1] {
			continue
		}
		pairs[w] = pairs[r]
		pairs[w+1] = pairs[r+1]
		w += 2
	}
	return pairs[:w]
}

// SubjectRange returns the minimum and maximum subject (even-index) values.
// It must not be called on an empty list.
func SubjectRange(pairs []uint64) (min, max uint64) {
	min, max = pairs[0], pairs[0]
	for i := 2; i < len(pairs); i += 2 {
		s := pairs[i]
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	return min, max
}

// insertionSortPairs sorts pairs[lo:hi] (byte offsets into the flat list,
// both even) with binary insertion, used for small blocks.
func insertionSortPairs(pairs []uint64, lo, hi int) {
	for i := lo + 2; i < hi; i += 2 {
		s, o := pairs[i], pairs[i+1]
		j := i
		for j > lo && (pairs[j-2] > s || (pairs[j-2] == s && pairs[j-1] > o)) {
			pairs[j] = pairs[j-2]
			pairs[j+1] = pairs[j-1]
			j -= 2
		}
		pairs[j] = s
		pairs[j+1] = o
	}
}

// pairSorter adapts a flat pair list to sort.Interface; it backs the
// "Quicksort" generic row of Table 1.
type pairSorter []uint64

func (p pairSorter) Len() int { return len(p) / 2 }
func (p pairSorter) Less(i, j int) bool {
	if p[2*i] != p[2*j] {
		return p[2*i] < p[2*j]
	}
	return p[2*i+1] < p[2*j+1]
}
func (p pairSorter) Swap(i, j int) {
	p[2*i], p[2*j] = p[2*j], p[2*i]
	p[2*i+1], p[2*j+1] = p[2*j+1], p[2*i+1]
}

// QuicksortPairs sorts the pair list with the standard library's
// comparison sort (introsort). It is the "Quicksort" baseline of Table 1.
func QuicksortPairs(pairs []uint64) {
	sort.Sort(pairSorter(pairs))
}

// MergesortPairs sorts the pair list with a top-down merge sort using a
// full auxiliary buffer. It stands in for the "Mergesort"/"Merge128"
// baselines of Table 1 (the paper's Merge128 is a SIMD merge sort; Go has
// no SIMD in the standard library, see DESIGN.md §3).
func MergesortPairs(pairs []uint64) {
	n := len(pairs)
	if n <= 2 {
		return
	}
	aux := make([]uint64, n)
	mergesortRec(pairs, aux, 0, n)
}

func mergesortRec(pairs, aux []uint64, lo, hi int) {
	if hi-lo <= 48 {
		insertionSortPairs(pairs, lo, hi)
		return
	}
	mid := lo + (hi-lo)/2
	if mid%2 == 1 {
		mid++
	}
	mergesortRec(pairs, aux, lo, mid)
	mergesortRec(pairs, aux, mid, hi)
	// Skip the merge when already ordered across the split.
	if pairs[mid-2] < pairs[mid] || (pairs[mid-2] == pairs[mid] && pairs[mid-1] <= pairs[mid+1]) {
		return
	}
	copy(aux[lo:hi], pairs[lo:hi])
	i, j := lo, mid
	for k := lo; k < hi; k += 2 {
		switch {
		case i >= mid:
			pairs[k], pairs[k+1] = aux[j], aux[j+1]
			j += 2
		case j >= hi:
			pairs[k], pairs[k+1] = aux[i], aux[i+1]
			i += 2
		case aux[j] < aux[i] || (aux[j] == aux[i] && aux[j+1] < aux[i+1]):
			pairs[k], pairs[k+1] = aux[j], aux[j+1]
			j += 2
		default:
			pairs[k], pairs[k+1] = aux[i], aux[i+1]
			i += 2
		}
	}
}

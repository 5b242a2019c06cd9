package standin

import "sort"

// Table 1's generic pair sorts. Each orders a flat ⟨s,o⟩ pair list (the
// layout of internal/sorting) in place and keeps duplicates.

// LSDRadixPairs sorts with a least-significant-digit radix sort. Unlike
// MSDA it examines every varying byte of every key, which makes it
// insensitive to entropy. It stands in for the "Radix128" row of
// Table 1 (the paper's Radix128 is SIMD-accelerated; DESIGN.md §3).
func LSDRadixPairs(pairs []uint64) {
	n := len(pairs)
	if n <= 2 {
		return
	}
	src, dst := pairs, make([]uint64, n)
	swapped := false

	allS, anyS, allO, anyO := ^uint64(0), uint64(0), ^uint64(0), uint64(0)
	for i := 0; i < n; i += 2 {
		allS &= src[i]
		anyS |= src[i]
		allO &= src[i+1]
		anyO |= src[i+1]
	}
	varyS, varyO := allS^anyS, allO^anyO

	// Object word first (least significant), then subject word; the sort
	// is stable so earlier passes are preserved.
	for pass := 0; pass < 16; pass++ {
		word, shift := 1, uint(pass)*8
		vary := varyO
		if pass >= 8 {
			word, shift = 0, uint(pass-8)*8
			vary = varyS
		}
		if (vary>>shift)&0xFF == 0 {
			continue
		}
		var counts [256]int
		for i := 0; i < n; i += 2 {
			counts[(src[i+word]>>shift)&0xFF]++
		}
		sum := 0
		for b := 0; b < 256; b++ {
			c := counts[b]
			counts[b] = sum
			sum += c
		}
		for i := 0; i < n; i += 2 {
			b := (src[i+word] >> shift) & 0xFF
			j := 2 * counts[b]
			dst[j] = src[i]
			dst[j+1] = src[i+1]
			counts[b]++
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		copy(pairs, src)
	}
}

// MergesortPairs sorts with a top-down merge sort over a full auxiliary
// buffer: the "Mergesort" row of Table 1. The paper's SIMD merge sort
// runs the same algorithm, and Go has no SIMD (DESIGN.md §3).
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

// insertionSortPairs sorts pairs[lo:hi] (word offsets, both even) by
// straight insertion; mergesortRec hands it the small blocks.
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

// pairSorter adapts a flat pair list to sort.Interface.
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

// QuicksortPairs sorts with the standard library's comparison sort
// (introsort). It is the "Quicksort" row of Table 1.
func QuicksortPairs(pairs []uint64) {
	sort.Sort(pairSorter(pairs))
}

// Package sorting implements the key/value pair sorts at the core of
// Inferray (§5 of the paper): a counting sort for pairs (Algorithm 2)
// with in-pass duplicate elimination, an adaptive MSD radix sort
// ("MSDA"), and the operating-range selector (§5.4) that picks between
// them. Table 1's generic baselines live with the other competitor
// stand-ins in cmd/benchtables.
//
// Throughout the package a pair list is a flat []uint64 of even length:
// subjects (sort keys) on even indices, objects (values) on odd indices,
// exactly the property-table layout of internal/store.
package sorting

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

// insertionSortPairs sorts pairs[lo:hi] (word offsets into the flat
// list, both even) by straight insertion, used for small blocks.
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

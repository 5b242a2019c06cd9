package sorting

// maxCountingWidth caps the histogram the counting sort may allocate
// regardless of collection size (guards against adversarial inputs where
// a handful of outliers inflate the range).
const maxCountingWidth = 1 << 27

// SortPairs sorts a flat ⟨subject, object⟩ pair list, optionally removing
// duplicate pairs, and returns the (possibly trimmed) slice. It applies
// the operating-range rule of §5.4: counting sort when the collection
// size is at least the subject value range (dense data), adaptive MSD
// radix otherwise (sparse data).
func SortPairs(pairs []uint64, dedup bool) []uint64 {
	n := len(pairs) / 2
	switch n {
	case 0:
		return pairs
	case 1:
		return pairs
	}
	min, max := SubjectRange(pairs)
	// The width is span+1; comparing the span keeps a list whose
	// subjects cover all of uint64 from wrapping the width to 0.
	span := max - min
	if span < uint64(n) && span < maxCountingWidth {
		return countingSortPairsRange(pairs, min, max, dedup)
	}
	return RadixSortPairsMSDA(pairs, dedup)
}

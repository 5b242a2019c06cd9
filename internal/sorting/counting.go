package sorting

// CountingSortPairs sorts a flat pair list by ⟨subject, object⟩ with the
// pair counting sort of the paper (Algorithm 2) and, when dedup is true,
// removes duplicate pairs during the rebuild pass. It returns the sorted
// (and possibly trimmed) slice, which aliases the input's backing array.
//
// The algorithm keeps the histogram principle for subjects while sorting
// the objects attached to each subject in an auxiliary array:
//
//  1. histogram the subjects and compute each subject's starting position
//     in the final array (cumulative sum);
//  2. scatter the objects into per-subject subarrays (filling each
//     subarray from its end, using the histogram as a countdown);
//  3. sort each object subarray;
//  4. rebuild the pair list by walking the histogram copy, skipping
//     duplicate objects if requested.
//
// The histogram has max(subject)−min(subject)+1 slots. A list whose
// subjects span maxCountingWidth or more — the cap SortPairs applies —
// goes to RadixSortPairsMSDA instead, so no caller can ask for an
// unbounded histogram or wrap its width. SortPairs also applies the
// operating range of §5.4 (size at least the span).
func CountingSortPairs(pairs []uint64, dedup bool) []uint64 {
	n := len(pairs)
	if n <= 2 {
		return pairs
	}
	min, max := SubjectRange(pairs)
	if max-min >= maxCountingWidth {
		return RadixSortPairsMSDA(pairs, dedup)
	}
	return countingSortPairsRange(pairs, min, max, dedup)
}

func countingSortPairsRange(pairs []uint64, min, max uint64, dedup bool) []uint64 {
	n := len(pairs)
	width := int(max-min) + 1

	// Lines 1–3: histogram, copy, starting positions.
	histogram := make([]int32, width)
	for i := 0; i < n; i += 2 {
		histogram[pairs[i]-min]++
	}
	histogramCopy := make([]int32, width)
	copy(histogramCopy, histogram)
	start := make([]int32, width+1)
	var sum int32
	for i, c := range histogram {
		start[i] = sum
		sum += c
	}
	start[width] = sum

	// Lines 4–10: scatter objects into unsorted per-subject subarrays.
	objects := make([]uint64, n/2)
	for i := 0; i < n; i += 2 {
		b := pairs[i] - min
		position := start[b]
		remaining := histogram[b]
		histogram[b]--
		objects[position+remaining-1] = pairs[i+1]
	}

	// Lines 11–13: sort each subject's object subarray.
	for i := 0; i < width; i++ {
		lo, hi := int(start[i]), int(start[i+1])
		if hi-lo > 1 {
			sortObjects(objects[lo:hi])
		}
	}

	// Lines 14–26: rebuild the pair array, removing duplicates.
	j := 0
	l := 0
	for i := 0; i < width; i++ {
		val := int(histogramCopy[i])
		if val == 0 {
			continue
		}
		subject := min + uint64(i)
		var previousObject uint64
		for k := 0; k < val; k++ {
			object := objects[l]
			l++
			if !dedup || k == 0 || object != previousObject {
				pairs[j] = subject
				pairs[j+1] = object
				j += 2
			}
			previousObject = object
		}
	}
	return pairs[:j] // line 27: trim
}

// sortObjects sorts one subject's object subarray. Small runs use
// insertion sort; larger ones use a counting sort over the run's own
// value range when that range is narrow (the common case under dense
// numbering, §5.1), falling back to a 64-bit LSD radix otherwise.
func sortObjects(vals []uint64) {
	n := len(vals)
	if n <= 32 {
		insertionSortU64(vals)
		return
	}
	min, max := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	width := max - min + 1
	if width <= uint64(8*n)+1024 {
		countingSortU64(vals, min, int(width))
		return
	}
	lsdRadixU64(vals)
}

func insertionSortU64(vals []uint64) {
	for i := 1; i < len(vals); i++ {
		v := vals[i]
		j := i
		for j > 0 && vals[j-1] > v {
			vals[j] = vals[j-1]
			j--
		}
		vals[j] = v
	}
}

func countingSortU64(vals []uint64, min uint64, width int) {
	counts := make([]int32, width)
	for _, v := range vals {
		counts[v-min]++
	}
	i := 0
	for b, c := range counts {
		v := min + uint64(b)
		for ; c > 0; c-- {
			vals[i] = v
			i++
		}
	}
}

// lsdRadixU64 sorts a []uint64 with a byte-wise LSD radix sort, skipping
// passes whose byte is constant across the input.
func lsdRadixU64(vals []uint64) {
	n := len(vals)
	aux := make([]uint64, n)
	var all, any uint64 = ^uint64(0), 0
	for _, v := range vals {
		all &= v
		any |= v
	}
	varying := all ^ any // bits that differ somewhere
	src, dst := vals, aux
	swapped := false
	for shift := uint(0); shift < 64; shift += 8 {
		if (varying>>shift)&0xFF == 0 {
			continue // constant byte: pass is a no-op
		}
		var counts [256]int
		for _, v := range src {
			counts[(v>>shift)&0xFF]++
		}
		sum := 0
		for b := 0; b < 256; b++ {
			c := counts[b]
			counts[b] = sum
			sum += c
		}
		for _, v := range src {
			b := (v >> shift) & 0xFF
			dst[counts[b]] = v
			counts[b]++
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		copy(vals, src)
	}
}

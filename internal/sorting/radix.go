package sorting

import "math/bits"

// msdInsertionCutoff is the block size (in uint64 words, i.e. 2×pairs)
// below which MSD recursion hands off to insertion sort.
const msdInsertionCutoff = 96

// RadixSortPairsMSDA sorts a flat pair list by the 128-bit key formed by
// ⟨subject, object⟩ using Inferray's adaptive MSD radix sort (§5.3).
// When dedup is true duplicate pairs are removed after the sort and the
// trimmed slice is returned.
//
// A standard MSD radix on 64+64-bit keys would examine up to 16 byte
// digits. Dense numbering (§5.1) concentrates all values in a narrow
// window around 2³², so the leading subject bytes are identical across
// the whole table. The adaptive variant computes the number of leading
// bytes shared by every subject in one pass and starts recursion at the
// first digit that can actually discriminate — and does the same again
// when recursion crosses from subject into object digits.
func RadixSortPairsMSDA(pairs []uint64, dedup bool) []uint64 {
	if len(pairs) > 2 {
		level := commonLeadingBytes(pairs, 0)
		msdRadixPairs(pairs, 0, len(pairs), level)
	}
	if dedup {
		return DedupSortedPairs(pairs)
	}
	return pairs
}

// commonLeadingBytes returns the first digit level within the given word
// (word 0 = subject digits 0–7, word 1 = object digits 8–15) whose byte
// is not constant across pairs[lo:hi] — i.e. how many leading levels of
// that word can be skipped, offset by the word's base level.
func commonLeadingBytes(pairs []uint64, word int) int {
	var diff uint64
	first := pairs[word]
	for i := word; i < len(pairs); i += 2 {
		diff |= pairs[i] ^ first
	}
	base := word * 8
	if diff == 0 {
		return base + 8
	}
	return base + bits.LeadingZeros64(diff)/8
}

// pairDigit extracts the level-th big-endian byte of the 128-bit key of
// the pair starting at word index i. Levels 0–7 address the subject,
// levels 8–15 the object.
func pairDigit(pairs []uint64, i, level int) int {
	if level < 8 {
		return int(pairs[i]>>(uint(7-level)*8)) & 0xFF
	}
	return int(pairs[i+1]>>(uint(15-level)*8)) & 0xFF
}

// msdRadixPairs sorts pairs[lo:hi] (word offsets, both even) on digit
// levels ≥ level with an in-place American-flag permutation, recursing
// into buckets of more than one pair.
func msdRadixPairs(pairs []uint64, lo, hi, level int) {
	for {
		if hi-lo <= msdInsertionCutoff {
			insertionSortPairs(pairs, lo, hi)
			return
		}
		if level >= 16 {
			return
		}
		// Adaptive skip: when entering the object word, re-measure the
		// shared prefix inside this bucket (all subjects are equal here).
		if level == 8 {
			sub := pairs[lo:hi]
			level = commonLeadingBytes(sub, 1)
			if level >= 16 {
				return
			}
		}

		var counts [256]int
		for i := lo; i < hi; i += 2 {
			counts[pairDigit(pairs, i, level)]++
		}
		// Single-bucket level: advance to the next digit without moving
		// data (this is what makes the sort sublinear on dense inputs).
		if counts[pairDigit(pairs, lo, level)] == (hi-lo)/2 {
			level++
			continue
		}

		var heads, tails [256]int
		sum := lo
		for b := 0; b < 256; b++ {
			heads[b] = sum
			sum += 2 * counts[b]
			tails[b] = sum
		}
		starts := heads // copy: array assignment copies

		// American-flag cycle permutation.
		for b := 0; b < 256; b++ {
			for heads[b] < tails[b] {
				for {
					d := pairDigit(pairs, heads[b], level)
					if d == b {
						break
					}
					h := heads[d]
					pairs[heads[b]], pairs[h] = pairs[h], pairs[heads[b]]
					pairs[heads[b]+1], pairs[h+1] = pairs[h+1], pairs[heads[b]+1]
					heads[d] += 2
				}
				heads[b] += 2
			}
		}

		// Recurse into each bucket on the next digit. The largest bucket
		// is handled by the loop itself to bound stack depth.
		largest, largestB := 0, -1
		for b := 0; b < 256; b++ {
			if counts[b] > largest {
				largest, largestB = counts[b], b
			}
		}
		for b := 0; b < 256; b++ {
			if b == largestB || counts[b] <= 1 {
				continue
			}
			msdRadixPairs(pairs, starts[b], starts[b]+2*counts[b], level+1)
		}
		if largest <= 1 {
			return
		}
		lo, hi = starts[largestB], starts[largestB]+2*counts[largestB]
		level++
	}
}

package store

import (
	"inferray/internal/sorting"
)

// This file holds the in-place half of table maintenance: a change of k
// pairs to a sorted list of n costs O(k log n) to place and moves only
// the pairs behind the first touched position. The pair list, the
// asserted marks and a present ⟨o,s⟩ cache go through the same three
// steps — locate, shift, fill — so a one-triple write never rebuilds a
// table (DESIGN.md §7, "⟨o,s⟩-cache discipline").
//
// Which path a change takes is read off its inputs alone: spliceable
// below. Larger changes keep the allocate-and-merge path of merge.go.

// spliceFactor is the size rule: a change takes the in-place path when
// the table is at least this many times longer than the change. Above
// it the linear merge's sequential pass is cheaper than k tail moves.
const spliceFactor = 64

// spliceable reports whether a change of len(change)/2 pairs is small
// against a list of len(list)/2.
func spliceable(list, change []uint64) bool {
	return len(change)*spliceFactor <= len(list)
}

// gallopPair returns the first pair index in [from, n) of a sorted flat
// pair list whose pair is ≥ ⟨a,b⟩, doubling the step from 'from' before
// binary-searching the bracketed range. It is GallopLowerBound on the
// whole pair instead of the key, so a long run of one key is searched,
// not scanned — an ⟨o,s⟩ list has runs of tens of thousands.
func gallopPair(pairs []uint64, n, from int, a, b uint64) int {
	less := func(i int) bool {
		return pairs[2*i] < a || (pairs[2*i] == a && pairs[2*i+1] < b)
	}
	if from >= n || !less(from) {
		return min(from, n)
	}
	// Invariant: less(lo); the answer lies in (lo, hi].
	lo, step := from, 1
	for lo+step < n && less(lo+step) {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, n)
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); less(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// seek returns, for each pair of sub — sorted, duplicate-free — the index
// of the first pair of list that is not below it: where the pair is, or
// where it would go. It gallops forward from answer to answer, so a
// short sub does not scan the list.
func seek(list, sub []uint64) []int {
	at := make([]int, 0, len(sub)/2)
	n, p := len(list)/2, 0
	for i := 0; i < len(sub); i += 2 {
		p = gallopPair(list, n, p, sub[i], sub[i+1])
		at = append(at, p)
	}
	return at
}

// absent returns the pairs of sub — sorted, duplicate-free — that list
// lacks, in a buffer of their own, each with the pair index in list it
// sorts in front of.
func absent(list, sub []uint64) (fresh []uint64, at []int) {
	for i, p := range seek(list, sub) {
		if 2*p < len(list) && list[2*p] == sub[2*i] && list[2*p+1] == sub[2*i+1] {
			continue
		}
		fresh = append(fresh, sub[2*i], sub[2*i+1])
		at = append(at, p)
	}
	return fresh, at
}

// spliceIn inserts fresh[j] in front of pair index at[j] of list (at
// ascending, as absent returns it), working from the back so only the
// pairs behind at[0] move, each once. A list out of room is regrown once,
// with headroom of a thirty-second of its length: enough that a stream
// of single-pair writes regrows rarely, bounded so that resident bytes
// do not drift with it.
func spliceIn(list, fresh []uint64, at []int) []uint64 {
	src, n, total := list, len(list), len(list)+len(fresh)
	if cap(list) < total {
		list = make([]uint64, total, total+(total/32)&^1)
		copy(list, src[:2*at[0]])
	} else {
		list = list[:total]
	}
	end := n
	for j := len(at) - 1; j >= 0; j-- {
		p := 2 * at[j]
		copy(list[p+2*j+2:], src[p:end])
		list[p+2*j], list[p+2*j+1] = fresh[2*j], fresh[2*j+1]
		end = p
	}
	return list
}

// closeGaps removes the pairs at the ascending pair indexes at from list,
// moving only the pairs behind at[0].
func closeGaps(list []uint64, at []int) []uint64 {
	w := 2 * at[0]
	for j, p := range at {
		end := len(list)
		if j+1 < len(at) {
			end = 2 * at[j+1]
		}
		w += copy(list[w:], list[2*p+2:end])
	}
	return list[:w]
}

// swapSorted returns a list of ⟨s,o⟩ pairs as ⟨o,s⟩ pairs in ⟨o,s⟩
// order: a whole table for its cache, or what a change to the table
// looks like to the cache.
func swapSorted(list []uint64) []uint64 {
	sw := make([]uint64, len(list))
	for i := 0; i < len(list); i += 2 {
		sw[i], sw[i+1] = list[i+1], list[i]
	}
	return sorting.SortPairs(sw, false)
}

// getBits reads cnt (1..64) bits of m starting at bit pos.
func getBits(m []uint64, pos, cnt int) uint64 {
	w, off := pos>>6, uint(pos)&63
	v := m[w] >> off
	if off+uint(cnt) > 64 {
		v |= m[w+1] << (64 - off)
	}
	if cnt < 64 {
		v &= 1<<uint(cnt) - 1
	}
	return v
}

// openBits carries an n-bit map through spliceIn: a zero bit appears at
// each of the ascending new positions holes and every bit behind a hole
// moves up past it. Words are rewritten from the top down to the first
// hole's — a bit only ever moves up, so the words still to be read are
// the ones not yet written — and the words below are not touched.
func openBits(m []uint64, n int, holes []int) []uint64 {
	total := n + len(holes)
	if words := (total + 63) / 64; len(m) < words {
		m = append(m, make([]uint64, words-len(m))...)
	}
	j := len(holes) - 1 // the highest hole below the bit being placed
	for w := (total - 1) >> 6; w >= holes[0]>>6; w-- {
		lo := w << 6
		var word uint64
		for q := min(lo+64, total); q > lo; {
			for j >= 0 && holes[j] >= q {
				j--
			}
			// New bits [seg, q) sit above j+1 holes: old bits [seg-j-1, q-j-1).
			seg := lo
			if j >= 0 && holes[j] >= lo {
				seg = holes[j] + 1
			}
			if q > seg {
				word |= getBits(m, seg-j-1, q-seg) << uint(seg-lo)
			}
			q = seg - 1 // the hole itself stays zero
		}
		m[w] = word
	}
	return m
}

// closeBits carries an n-bit map through closeGaps: the bits at the
// ascending positions gone disappear and every bit behind one moves down.
// Words are rewritten from the first gap's upward, mirroring openBits.
func closeBits(m []uint64, n int, gone []int) []uint64 {
	total := n - len(gone)
	words := (total + 63) / 64
	i := 0 // gaps closed at or below the bit being placed
	for w := gone[0] >> 6; w < words; w++ {
		lo, hi := w<<6, min(w<<6+64, total)
		var word uint64
		for q := lo; q < hi; {
			for i < len(gone) && gone[i]-i <= q {
				i++
			}
			// New bits [q, seg) sit above i gaps: old bits [q+i, seg+i).
			seg := hi
			if i < len(gone) && gone[i]-i < hi {
				seg = gone[i] - i
			}
			word |= getBits(m, q+i, seg-q) << uint(q-lo)
			q = seg
		}
		m[w] = word
	}
	return m[:words]
}

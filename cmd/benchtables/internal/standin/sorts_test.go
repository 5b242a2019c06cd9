package standin

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"inferray/internal/sorting"
)

// The generic sorts run over the shapes, the oracle and the quick
// configuration that internal/sorting's tests use for the paper's sorts.

// sortOracle sorts a pair list with the standard library and optionally
// removes duplicates.
func sortOracle(pairs []uint64, dedup bool) []uint64 {
	ps := make([][2]uint64, len(pairs)/2)
	for i := range ps {
		ps[i] = [2]uint64{pairs[2*i], pairs[2*i+1]}
	}
	slices.SortFunc(ps, func(a, b [2]uint64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	out := clonePairs(pairs)
	for i, p := range ps {
		out[2*i], out[2*i+1] = p[0], p[1]
	}
	if dedup {
		out = sorting.DedupSortedPairs(out)
	}
	return out
}

func clonePairs(p []uint64) []uint64 { return append([]uint64(nil), p...) }

// genPairs builds a random pair list with subjects in [base, base+rangeN).
func genPairs(rng *rand.Rand, n int, base, rangeN uint64) []uint64 {
	pairs := make([]uint64, 2*n)
	for i := 0; i < n; i++ {
		pairs[2*i] = base + rng.Uint64()%rangeN
		pairs[2*i+1] = base + rng.Uint64()%rangeN
	}
	return pairs
}

var genericSorts = []struct {
	name string
	sort func([]uint64)
}{
	{"Radix128", LSDRadixPairs},
	{"Mergesort", MergesortPairs},
	{"Quicksort", QuicksortPairs},
}

// sortThenDedup runs a generic sort and, when dedup is set, removes
// duplicates in a separate linear pass, as a system built on a generic
// sort would have to.
func sortThenDedup(sortFn func([]uint64), pairs []uint64, dedup bool) []uint64 {
	sortFn(pairs)
	if dedup {
		return sorting.DedupSortedPairs(pairs)
	}
	return pairs
}

func TestSortPairsAllAlgorithmsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		name         string
		n            int
		base, rangeN uint64
	}{
		{"empty", 0, 0, 1},
		{"single", 1, 1 << 32, 100},
		{"dense-small", 50, 1 << 32, 8},
		{"dense-large", 3000, 1 << 32, 64},
		{"sparse", 500, 1 << 32, 1 << 40},
		{"around-split", 1000, (1 << 32) - 500, 1000},
		{"wide-64bit", 300, 1, 1 << 62},
		{"all-equal-subjects", 400, 1 << 32, 1},
	}
	for _, sh := range shapes {
		pairs := genPairs(rng, sh.n, sh.base, sh.rangeN)
		for _, dedup := range []bool{false, true} {
			want := sortOracle(pairs, dedup)
			for _, alg := range genericSorts {
				got := sortThenDedup(alg.sort, clonePairs(pairs), dedup)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s dedup=%v: mismatch (n=%d)", sh.name, alg.name, dedup, sh.n)
				}
			}
		}
	}
}

// TestSortPairsQuick: arbitrary uint64 pairs (any entropy), every
// generic sort must agree with the oracle.
func TestSortPairsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	for _, alg := range genericSorts {
		f := func(raw []uint64, dedup bool) bool {
			if len(raw)%2 == 1 {
				raw = raw[:len(raw)-1]
			}
			want := sortOracle(raw, dedup)
			got := sortThenDedup(alg.sort, clonePairs(raw), dedup)
			return reflect.DeepEqual(got, want)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", alg.name, err)
		}
	}
}

func TestStability64BitBoundaries(t *testing.T) {
	pairs := []uint64{
		^uint64(0), 0,
		0, ^uint64(0),
		^uint64(0), ^uint64(0),
		0, 0,
		1 << 63, 1 << 31,
	}
	for _, alg := range genericSorts {
		got := clonePairs(pairs)
		alg.sort(got)
		if want := sortOracle(pairs, false); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: extreme values mis-sorted", alg.name)
		}
	}
}

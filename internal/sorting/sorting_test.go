package sorting

import (
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// sortOracle sorts a pair list with the standard library and optionally
// removes duplicates — the reference all custom sorts are checked
// against.
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
		out = DedupSortedPairs(out)
	}
	return out
}

func clonePairs(p []uint64) []uint64 { return append([]uint64(nil), p...) }

// genPairs builds a random pair list with subjects in [base, base+rangeN)
// to control entropy.
func genPairs(rng *rand.Rand, n int, base, rangeN uint64) []uint64 {
	pairs := make([]uint64, 2*n)
	for i := 0; i < n; i++ {
		pairs[2*i] = base + rng.Uint64()%rangeN
		pairs[2*i+1] = base + rng.Uint64()%rangeN
	}
	return pairs
}

// namedSort is one of the package's sorts under test.
type namedSort struct {
	name string
	sort func(pairs []uint64, dedup bool) []uint64
}

var (
	counting = namedSort{"Counting", CountingSortPairs}
	msda     = namedSort{"MSDA Radix", RadixSortPairsMSDA}
	selector = namedSort{"selector", SortPairs}
)

// The generic sorts of Table 1 are checked over the same shapes, by the
// same oracle, in cmd/benchtables/internal/standin.
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
			for _, alg := range []namedSort{counting, msda, selector} {
				got := alg.sort(clonePairs(pairs), dedup)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s dedup=%v: mismatch (n=%d)", sh.name, alg.name, dedup, sh.n)
				}
			}
		}
	}
}

// TestSortPairsQuick is the property-based check: arbitrary uint64 pairs
// (any entropy), MSDA and the selector must agree with the oracle.
// TestCountingSortQuick bounds the subject range for the counting sort.
func TestSortPairsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	for _, alg := range []namedSort{msda, selector} {
		f := func(raw []uint64, dedup bool) bool {
			if len(raw)%2 == 1 {
				raw = raw[:len(raw)-1]
			}
			want := sortOracle(raw, dedup)
			got := alg.sort(clonePairs(raw), dedup)
			return reflect.DeepEqual(got, want)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", alg.name, err)
		}
	}
}

// TestCountingSortQuick bounds the subject range (counting sort's
// contract) but leaves objects arbitrary.
func TestCountingSortQuick(t *testing.T) {
	f := func(subjects []uint16, objects []uint64, dedup bool) bool {
		n := len(subjects)
		if len(objects) < n {
			n = len(objects)
		}
		pairs := make([]uint64, 0, 2*n)
		for i := 0; i < n; i++ {
			pairs = append(pairs, uint64(subjects[i]), objects[i])
		}
		want := sortOracle(pairs, dedup)
		got := CountingSortPairs(clonePairs(pairs), dedup)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAlgorithm2PaperTrace replays the exact example of Figure 6:
// input pairs (4,1)(2,3)(1,2)(5,3)(4,4) must sort to
// (1,2)(2,3)(4,1)(4,4)(5,3).
func TestAlgorithm2PaperTrace(t *testing.T) {
	in := []uint64{4, 1, 2, 3, 1, 2, 5, 3, 4, 4}
	want := []uint64{1, 2, 2, 3, 4, 1, 4, 4, 5, 3}
	got := CountingSortPairs(clonePairs(in), false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Figure 6 trace: got %v want %v", got, want)
	}
	// With dedup on the same input (no duplicates) nothing is removed.
	got = CountingSortPairs(clonePairs(in), true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Figure 6 trace dedup: got %v want %v", got, want)
	}
}

func TestCountingSortRemovesDuplicatesInPass(t *testing.T) {
	in := []uint64{3, 9, 3, 9, 1, 5, 3, 9, 1, 5, 2, 2}
	want := []uint64{1, 5, 2, 2, 3, 9}
	got := CountingSortPairs(in, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestDedupSortedPairs(t *testing.T) {
	cases := []struct{ in, want []uint64 }{
		{nil, nil},
		{[]uint64{1, 2}, []uint64{1, 2}},
		{[]uint64{1, 2, 1, 2}, []uint64{1, 2}},
		{[]uint64{1, 2, 1, 3, 1, 3, 2, 1}, []uint64{1, 2, 1, 3, 2, 1}},
	}
	for _, c := range cases {
		got := DedupSortedPairs(clonePairs(c.in))
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("dedup(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDedupIdempotent(t *testing.T) {
	f := func(raw []uint64) bool {
		if len(raw)%2 == 1 {
			raw = raw[:len(raw)-1]
		}
		once := SortPairs(clonePairs(raw), true)
		twice := DedupSortedPairs(clonePairs(once))
		return reflect.DeepEqual(once, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIsSortedPairs(t *testing.T) {
	if !IsSortedPairs(nil) || !IsSortedPairs([]uint64{5, 1}) {
		t.Error("trivial lists must be sorted")
	}
	if !IsSortedPairs([]uint64{1, 5, 1, 6, 2, 0}) {
		t.Error("sorted list misreported")
	}
	if IsSortedPairs([]uint64{1, 6, 1, 5}) {
		t.Error("object-order violation missed")
	}
	if IsSortedPairs([]uint64{2, 0, 1, 9}) {
		t.Error("subject-order violation missed")
	}
}

func TestSubjectRange(t *testing.T) {
	min, max := SubjectRange([]uint64{9, 1, 3, 2, 7, 3})
	if min != 3 || max != 9 {
		t.Errorf("got [%d,%d], want [3,9]", min, max)
	}
}

func TestSelectorPicksCountingForDenseData(t *testing.T) {
	// size (1000) > range (10): the selector's counting path must be hit
	// and produce a sorted result; verify through the observable
	// contract since the choice itself is internal.
	rng := rand.New(rand.NewSource(3))
	pairs := genPairs(rng, 1000, 1<<32, 10)
	got := SortPairs(clonePairs(pairs), false)
	if !IsSortedPairs(got) {
		t.Fatal("selector output not sorted")
	}
	if len(got) != len(pairs) {
		t.Fatal("selector must not drop pairs without dedup")
	}
}

func TestMSDARadixAdaptiveSkipCorrectness(t *testing.T) {
	// All subjects share 7 leading bytes: the adaptive skip must still
	// sort the low byte and the objects correctly.
	pairs := []uint64{}
	base := uint64(0x0123456789ABCD00)
	for i := 255; i >= 0; i-- {
		pairs = append(pairs, base|uint64(i), uint64(255-i))
	}
	got := RadixSortPairsMSDA(clonePairs(pairs), false)
	want := sortOracle(pairs, false)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("adaptive skip broke ordering")
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
	for _, alg := range []namedSort{msda, selector} {
		got := alg.sort(clonePairs(pairs), false)
		want := sortOracle(pairs, false)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: extreme values mis-sorted", alg.name)
		}
	}
}

// TestCountingSortGatesItsWidth: CountingSortPairs hands a list whose
// subjects span maxCountingWidth or more to the MSDA radix instead of
// allocating the histogram. A span of all of uint64 would wrap the width
// to 0; a span of exactly the cap would allocate three arrays of 2^27
// slots. Each must sort right without that allocation.
func TestCountingSortGatesItsWidth(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pairs []uint64
	}{
		{"full uint64 span", []uint64{^uint64(0), 3, 0, 1, 1 << 63, 2, ^uint64(0), 3, 0, 0}},
		{"span at the cap", []uint64{7 + maxCountingWidth, 1, 7, 9, 7, 2, 7 + maxCountingWidth, 1}},
	} {
		for _, dedup := range []bool{false, true} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := CountingSortPairs(clonePairs(tc.pairs), dedup)
			runtime.ReadMemStats(&after)
			if want := sortOracle(tc.pairs, dedup); !reflect.DeepEqual(got, want) {
				t.Errorf("%s dedup=%v: got %v, want %v", tc.name, dedup, got, want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= maxCountingWidth {
				t.Errorf("%s dedup=%v: allocated %d bytes, a histogram's worth", tc.name, dedup, alloc)
			}
		}
	}
}

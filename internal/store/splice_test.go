package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"inferray/internal/sorting"
)

// spliceScript drives one table of one store through the inserts and
// deletes a byte string spells out and compares it, after every step,
// with a rebuild from a map oracle. The first byte picks the set-up —
// marks present or nil, ⟨o,s⟩ cache present or absent, spare capacity or
// none — and every later op is a kind byte, a count byte and that many
// ⟨s,o⟩ byte pairs. Small ops take the in-place path, large ones the
// rebuild path; what is checked is the same either way:
//
//   - Pairs() strictly sorted and equal to the oracle's pairs;
//   - pair i marked iff the oracle says that pair is asserted, the mark
//     words exactly ⌈n/64⌉ with no bit past the last pair;
//   - a present cache equal to a fresh OS() of a clone, present exactly
//     when the step could patch it (a spliceable change);
//   - Version() up by exactly one per content change, unmoved otherwise;
//   - Stats() equal to a cold table's;
//   - the round's delta equal to the fresh pairs and never aliasing the
//     table: it survives a scribble over the table's spare capacity and
//     every later in-place step.
type spliceScript struct {
	t      testing.TB
	st     *Store
	tab    *Table
	oracle map[[2]uint64]bool // pair → asserted

	lastDelta, lastDeltaWant []uint64
}

// The id universe: small enough that ops collide with stored pairs,
// large enough that the base table makes a few-pair change spliceable.
const (
	scriptSubjects = 96
	scriptObjects  = 48
)

func runSpliceScript(t testing.TB, script []byte) {
	if len(script) == 0 {
		return
	}
	setup, script := script[0], script[1:]
	sc := &spliceScript{t: t, st: New(1), oracle: map[[2]uint64]bool{}}
	sc.tab = sc.st.Ensure(0)

	// The base table: every third pair of the universe, shifted by the
	// set-up byte, ≈1,500 pairs — a change of up to 23 pairs is spliceable.
	for i := int(setup >> 4); i < scriptSubjects*scriptObjects; i += 3 {
		s, o := uint64(i/scriptObjects), uint64(i%scriptObjects)
		sc.tab.Append(s, o)
		sc.oracle[[2]uint64{s, o}] = false
	}
	sc.tab.Normalize()
	if setup&1 != 0 { // marks present: assert every fifth pair
		var sub []uint64
		for i, p := 0, sc.tab.Pairs(); i < len(p); i += 10 {
			sub = append(sub, p[i], p[i+1])
			sc.oracle[[2]uint64{p[i], p[i+1]}] = true
		}
		sc.tab.Mark(sub)
	}
	if setup&2 != 0 {
		sc.tab.OS()
	}
	if setup&4 != 0 { // headroom instead of an exact-capacity list
		sc.tab.pairs = append(make([]uint64, 0, len(sc.tab.pairs)+64), sc.tab.pairs...)
	}
	sc.check("set-up", sc.tab.Version(), false, sc.tab.osOK)

	for step := 0; len(script) >= 2; step++ {
		kind, n := script[0], int(script[1])
		script = script[2:]
		if kind&8 == 0 {
			n %= 5 // small: 0–4 pairs
		}
		n = min(n, len(script)/2)
		var pairs []uint64
		for i := 0; i < n; i++ {
			pairs = append(pairs, uint64(script[2*i])%scriptSubjects, uint64(script[2*i+1])%scriptObjects)
		}
		script = script[2*n:]
		pairs = sorting.SortPairs(pairs, true)
		label := fmt.Sprintf("step %d kind %d pairs %v", step, kind&7, pairs)
		switch kind & 7 {
		case 0, 1, 2: // a derived (0, 1) or an asserted (2) merge
			sc.merge(label, pairs, kind&7 == 2)
		case 3, 4:
			sc.delete(label, pairs)
		case 5:
			sc.tab.OS()
			sc.check(label, sc.tab.Version(), false, true)
		case 6:
			sc.tab.settleOS(nil)
			sc.check(label, sc.tab.Version(), false, false)
		case 7: // the boundaries: before index 0, after the last pair
			edge := []uint64{0, 0, scriptSubjects + 1, uint64(step)}
			if kind&16 != 0 {
				sc.delete(label, edge)
			} else {
				sc.merge(label, edge, false)
			}
		}
	}
}

func (sc *spliceScript) merge(label string, pairs []uint64, asserted bool) {
	version, cached := sc.tab.Version(), sc.tab.osOK
	patchable := spliceable(sc.tab.pairs, pairs)
	var fresh []uint64
	for i := 0; i < len(pairs); i += 2 {
		k := [2]uint64{pairs[i], pairs[i+1]}
		if _, ok := sc.oracle[k]; !ok {
			fresh = append(fresh, pairs[i], pairs[i+1])
		}
		sc.oracle[k] = sc.oracle[k] || asserted
	}
	out := New(1)
	out.Ensure(0).AppendPairs(pairs)
	delta := MergeRound(sc.st, false, asserted, out)
	var got []uint64
	if dt := delta.Table(0); dt != nil {
		got = dt.RawPairs()
	}
	if !slices.Equal(got, fresh) {
		sc.t.Fatalf("%s: delta %v, fresh pairs %v", label, got, fresh)
	}
	// Scribble over the output buffer and the table's spare capacity: the
	// delta owns its storage or it shows here, or after a later step.
	if ot := out.Table(0); ot != nil {
		p := ot.RawPairs()
		for i := range p[:cap(p)] {
			p[:cap(p)][i] = 1 << 40
		}
	}
	spare := sc.tab.pairs[len(sc.tab.pairs):cap(sc.tab.pairs)]
	for i := range spare {
		spare[i] = 1 << 41
	}
	sc.check(label, version, len(fresh) > 0, cached && (len(fresh) == 0 || patchable))
	sc.lastDelta, sc.lastDeltaWant = got, slices.Clone(fresh)
}

func (sc *spliceScript) delete(label string, pairs []uint64) {
	version, cached := sc.tab.Version(), sc.tab.osOK
	patchable := spliceable(sc.tab.pairs, pairs)
	removed := 0
	for i := 0; i < len(pairs); i += 2 {
		k := [2]uint64{pairs[i], pairs[i+1]}
		if _, ok := sc.oracle[k]; ok {
			delete(sc.oracle, k)
			removed++
		}
	}
	if got := sc.tab.DeletePairs(pairs); got != removed {
		sc.t.Fatalf("%s: DeletePairs removed %d, oracle %d", label, got, removed)
	}
	sc.check(label, version, removed > 0, cached && (removed == 0 || patchable))
}

// check compares the table with a rebuild from the oracle.
func (sc *spliceScript) check(label string, before uint64, changed, wantCache bool) {
	t, tab := sc.t, sc.tab
	if changed {
		before++
	}
	if tab.Version() != before {
		t.Fatalf("%s: version %d, want %d (changed %t)", label, tab.Version(), before, changed)
	}
	var want []uint64
	for k := range sc.oracle {
		want = append(want, k[0], k[1])
	}
	want = sorting.SortPairs(want, true)
	got := tab.Pairs()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: pairs differ from the oracle:\n got %v\nwant %v", label, got, want)
	}
	for i := 2; i < len(got); i += 2 {
		if got[i-2] > got[i] || (got[i-2] == got[i] && got[i-1] >= got[i+1]) {
			t.Fatalf("%s: pairs not strictly sorted at %d", label, i/2)
		}
	}
	n := len(got) / 2
	if m := tab.Marks(); m != nil {
		if len(m) != (n+63)/64 {
			t.Fatalf("%s: %d mark words for %d pairs", label, len(m), n)
		}
		if n%64 != 0 && m[len(m)-1]>>(uint(n)%64) != 0 {
			t.Fatalf("%s: mark bits past pair %d: %b", label, n, m[len(m)-1])
		}
	}
	for i := 0; i < n; i++ {
		if k := [2]uint64{got[2*i], got[2*i+1]}; tab.Marked(i) != sc.oracle[k] {
			t.Fatalf("%s: pair %d %v marked %t, oracle says %t", label, i, k, tab.Marked(i), sc.oracle[k])
		}
	}
	cold := &Table{pairs: slices.Clone(want)}
	coldOS := cold.OS()
	if tab.osOK != wantCache {
		t.Fatalf("%s: cache present %t, want %t", label, tab.osOK, wantCache)
	}
	if tab.osOK {
		if !slices.Equal(tab.os, coldOS) {
			t.Fatalf("%s: patched cache differs from a rebuild:\n got %v\nwant %v", label, tab.os, coldOS)
		}
	} else if tab.os != nil {
		t.Fatalf("%s: a dropped cache left its list behind", label)
	}
	// Stats of the cold table are exact (its cache was just built); the
	// table's own may estimate Objects as Subjects while it has no cache.
	st, exact := tab.Stats(), cold.Stats()
	if !st.ObjectsExact && !tab.osOK {
		exact.Objects, exact.ObjectsExact = exact.Subjects, false
	}
	if st != exact {
		t.Fatalf("%s: stats %+v, a cold table's %+v", label, st, exact)
	}
	if !slices.Equal(sc.lastDelta, sc.lastDeltaWant) {
		t.Fatalf("%s: the previous round's delta changed under it: %v, want %v", label, sc.lastDelta, sc.lastDeltaWant)
	}
}

// spliceSeedScript spells a random script: the seeded form of the
// property test, and the corpus FuzzSplice starts from.
func spliceSeedScript(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	script := make([]byte, 1+rng.Intn(600))
	rng.Read(script)
	return script
}

// TestSpliceMatchesRebuild is the property test of the in-place write
// path: 300 seeded scripts across all eight set-ups.
func TestSpliceMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		script := spliceSeedScript(seed)
		script[0] = script[0]&^7 | byte(seed%8)
		runSpliceScript(t, script)
	}
}

// FuzzSplice lets the fuzzer write the scripts.
func FuzzSplice(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(spliceSeedScript(seed))
	}
	f.Fuzz(func(t *testing.T, script []byte) { runSpliceScript(t, script) })
}

// TestSpliceBoundaries pins the cases a random script only meets by
// luck: no fresh pair at all, a pair in front of index 0, one behind the
// last, a change straddling a 64-pair mark word, and regrowth — on a
// table with marks and a cache.
func TestSpliceBoundaries(t *testing.T) {
	build := func() (*Store, *Table, map[[2]uint64]bool) {
		st := New(1)
		tab := st.Ensure(0)
		oracle := map[[2]uint64]bool{}
		for i := uint64(0); i < 640; i++ {
			tab.Append(10+i, i%7)
			oracle[[2]uint64{10 + i, i % 7}] = true
		}
		tab.Normalize()
		tab.MarkAll()
		tab.OS()
		return st, tab, oracle
	}
	for _, tc := range []struct {
		name  string
		pairs []uint64
	}{
		{"k = 0", []uint64{10, 0, 11, 1}},
		{"before index 0", []uint64{1, 1}},
		{"after the last pair", []uint64{5000, 1}},
		{"both ends", []uint64{1, 1, 5000, 1}},
		{"across a mark word", []uint64{10 + 63, 9, 10 + 64, 9}},
		{"bit 63 and bit 64", []uint64{10 + 62, 9, 10 + 63, 9}},
		{"ten pairs, one regrowth", []uint64{20, 9, 21, 9, 22, 9, 23, 9, 24, 9, 25, 9, 26, 9, 27, 9, 28, 9, 29, 9}},
	} {
		for _, del := range []bool{false, true} {
			st, tab, oracle := build()
			sc := &spliceScript{t: t, st: st, tab: tab, oracle: oracle}
			if del {
				// Insert first (unmarked), then delete the same pairs again —
				// along with one stored, marked neighbour per pair.
				sc.merge(tc.name+": insert", tc.pairs, false)
				cut := slices.Clone(tc.pairs)
				for i := 0; i < len(tc.pairs); i += 2 {
					if s := tc.pairs[i]; s >= 10 && s < 650 {
						cut = append(cut, s, (s-10)%7)
					}
				}
				sc.delete(tc.name+": delete", sorting.SortPairs(cut, true))
			} else {
				sc.merge(tc.name, tc.pairs, false)
				sc.merge(tc.name+": again", tc.pairs, true) // k = 0 fresh, marks set
			}
		}
	}

	// Regrowth: single-pair splices into an exact-capacity list reallocate
	// once per thirty-second of its length, not once per write.
	st, tab, _ := build()
	regrown := 0
	for i := uint64(0); i < 200; i++ {
		before := cap(tab.pairs)
		out := New(1)
		out.Ensure(0).Append(2000+i, 1)
		MergeRound(st, false, false, out)
		if cap(tab.pairs) != before {
			regrown++
			if n := len(tab.pairs); cap(tab.pairs) > n+n/32 {
				t.Fatalf("regrown to %d words for %d: more than a thirty-second of headroom", cap(tab.pairs), n)
			}
		}
	}
	if regrown < 2 || regrown > 12 {
		t.Fatalf("200 single-pair splices regrew the list %d times", regrown)
	}
}

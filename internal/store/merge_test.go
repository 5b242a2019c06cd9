package store

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"inferray/internal/sorting"
)

// TestMergeRoundDeltaNotAliased is the regression test for the
// empty-main fast path of mergeSorted, and the ownership contract of the
// gather step in front of it. The round's delta table must own its
// storage, so that later in-place mutations of the main table (appends
// into spare capacity, in-place normalization) cannot corrupt delta
// pairs still being read by the scheduler; and neither main nor the
// delta may keep a reference into a rule's output buffer — not even
// when a single rule wrote the table and the merge reads that buffer
// without copying it.
func TestMergeRoundDeltaNotAliased(t *testing.T) {
	for _, tc := range []struct {
		name string
		main []uint64
		outs [][]uint64
	}{
		// The duplicate pair makes the sort trim its result, leaving spare
		// capacity in the sorted slice — the precondition for the old
		// aliasing: main's table and the delta shared that array.
		{"empty main, one output", nil, [][]uint64{{5, 50, 1, 10, 1, 10, 3, 30}}},
		{"empty main, two outputs", nil, [][]uint64{{5, 50, 1, 10}, {1, 10, 3, 30}}},
		{"one output", []uint64{2, 20}, [][]uint64{{5, 50, 1, 10, 1, 10, 3, 30}}},
		{"two outputs", []uint64{2, 20}, [][]uint64{{5, 50, 1, 10}, {1, 10, 3, 30}}},
	} {
		main := New(1)
		main.Ensure(0).AppendPairs(tc.main)
		main.Normalize()
		var outs []*Store
		for _, pairs := range tc.outs {
			out := New(1)
			out.Ensure(0).AppendPairs(pairs)
			outs = append(outs, out)
		}

		delta := MergeRound(main, false, false, outs...)
		want := []uint64{1, 10, 3, 30, 5, 50}
		dt := delta.Table(0)
		if dt == nil || !reflect.DeepEqual(dt.RawPairs(), want) {
			t.Fatalf("%s: delta pairs = %v, want %v", tc.name, dt.RawPairs(), want)
		}

		// Scribble over every output buffer, spare capacity included, the
		// way a rule reusing its store would.
		for _, out := range outs {
			p := out.Table(0).RawPairs()
			p = p[:cap(p)]
			for i := range p {
				p[i] = 999
			}
		}
		if !reflect.DeepEqual(dt.RawPairs(), want) {
			t.Fatalf("%s: delta aliases an output buffer: %v", tc.name, dt.RawPairs())
		}
		mt := main.Table(0)
		if wantMain := sorting.SortPairs(append(slices.Clone(tc.main), want...), true); !reflect.DeepEqual(mt.Pairs(), wantMain) {
			t.Fatalf("%s: main aliases an output buffer: %v, want %v", tc.name, mt.Pairs(), wantMain)
		}

		// Mutate main after the round the way a later iteration does: append
		// (fills shared spare capacity) and normalize (sorts in place).
		mt.AppendPairs([]uint64{0, 7})
		mt.Normalize()
		if !reflect.DeepEqual(dt.RawPairs(), want) {
			t.Fatalf("%s: delta corrupted by main mutation: %v, want %v", tc.name, dt.RawPairs(), want)
		}
	}
}

// TestMergeRoundMergedPathNotAliased covers the general merge path too:
// a round over a non-empty main must also leave delta independent.
func TestMergeRoundMergedPathNotAliased(t *testing.T) {
	main := New(1)
	main.Ensure(0).AppendPairs([]uint64{2, 20})
	main.Normalize()
	inferred := New(1)
	inferred.Ensure(0).AppendPairs([]uint64{1, 10, 3, 30})

	delta := MergeRound(main, false, false, inferred)
	want := []uint64{1, 10, 3, 30}
	dt := delta.Table(0)
	if dt == nil || !reflect.DeepEqual(dt.RawPairs(), want) {
		t.Fatalf("delta pairs = %v, want %v", dt.RawPairs(), want)
	}

	mt := main.Table(0)
	mt.AppendPairs([]uint64{0, 7})
	mt.Normalize()

	if !reflect.DeepEqual(dt.RawPairs(), want) {
		t.Fatalf("delta corrupted by main mutation: %v, want %v", dt.RawPairs(), want)
	}
}

// TestMergeKeepsNoDeadCapacity: a round that re-derives a table's own
// pairs plus one new pair rebuilds the table, and the merged list it
// keeps is sized for the union, not for both inputs. The same holds for
// a table that starts empty, where the merge's sort buffer — twice the
// size here, every pair emitted twice — goes to the delta rather than to
// the table.
func TestMergeKeepsNoDeadCapacity(t *testing.T) {
	const n = 4096
	var own []uint64
	for i := uint64(0); i < n; i++ {
		own = append(own, i, i+1)
	}
	for _, tc := range []struct {
		name      string
		main, inf []uint64
		fresh     int
	}{
		{"re-derived", own, append(slices.Clone(own), n, 0), 1},
		{"empty main", nil, append(slices.Clone(own), own...), n},
	} {
		main := New(1)
		main.Ensure(0).AppendPairs(tc.main)
		main.Normalize()
		// Two outputs, so the merge sorts one buffer of its own.
		a, b := New(1), New(1)
		a.Ensure(0).AppendPairs(tc.inf[:len(tc.inf)/2])
		b.Ensure(0).AppendPairs(tc.inf[len(tc.inf)/2:])
		if fresh := MergeRound(main, false, false, a, b).Size(); fresh != tc.fresh {
			t.Fatalf("%s: %d fresh pairs, want %d", tc.name, fresh, tc.fresh)
		}
		mt := main.Table(0)
		if pairBytes, _, _ := mt.Footprint(); 8*pairBytes > 9*16*mt.Size() {
			t.Errorf("%s: %d pair bytes for %d pairs, want at most 9/8 × 16 each",
				tc.name, pairBytes, mt.Size())
		}
	}
}

// TestMergeRoundSplicePathNotAliased is the same contract on the
// in-place path: the fresh pairs are spliced into the table's own array
// — regrown or not — and the delta gets a buffer that is neither that
// array nor the rule's output, so scribbling over the output, filling
// the table's headroom and splicing again leave it alone.
func TestMergeRoundSplicePathNotAliased(t *testing.T) {
	for _, headroom := range []bool{false, true} {
		main := New(1)
		mt := main.Ensure(0)
		for i := uint64(0); i < 400; i++ {
			mt.Append(2*i, i)
		}
		mt.Normalize()
		if headroom {
			mt.pairs = append(make([]uint64, 0, len(mt.pairs)+32), mt.pairs...)
		}
		base := slices.Clone(mt.pairs)

		out := New(1)
		out.Ensure(0).AppendPairs([]uint64{401, 7, 3, 30, 3, 30, 1, 10, 2, 1}) // ⟨2,1⟩ is stored
		delta := MergeRound(main, false, false, out)
		want := []uint64{1, 10, 3, 30, 401, 7}
		dt := delta.Table(0)
		if dt == nil || !reflect.DeepEqual(dt.RawPairs(), want) {
			t.Fatalf("headroom %t: delta pairs = %v, want %v", headroom, dt.RawPairs(), want)
		}
		p := out.Table(0).RawPairs()
		for i := range p[:cap(p)] {
			p[:cap(p)][i] = 999
		}
		wantMain := sorting.SortPairs(append(base, want...), true)
		if !reflect.DeepEqual(mt.Pairs(), wantMain) {
			t.Fatalf("headroom %t: main aliases the output buffer: %v", headroom, mt.Pairs())
		}

		// The next round splices into the same array, moving every pair
		// behind index 0.
		next := New(1)
		next.Ensure(0).AppendPairs([]uint64{0, 99})
		MergeRound(main, false, false, next)
		if !reflect.DeepEqual(dt.RawPairs(), want) {
			t.Fatalf("headroom %t: delta corrupted by the next splice: %v, want %v", headroom, dt.RawPairs(), want)
		}
	}
}

// TestOSFirstBuildConcurrentWithReaders races OS()/ObjectRun readers
// on the lazy first build of a fresh table's ⟨o,s⟩ cache, the one place
// concurrent readers write the cache; it fails under -race if the build
// writes the cache fields outside osMu, and otherwise if a reader sees a
// partial list.
func TestOSFirstBuildConcurrentWithReaders(t *testing.T) {
	const iters, readers = 200, 4
	for i := 0; i < iters; i++ {
		tab := &Table{}
		for s := uint64(0); s < 256; s++ {
			tab.Append(s, 1000-s)
		}
		tab.Normalize()
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(byRun bool) {
				defer wg.Done()
				if byRun {
					if lo, hi := tab.ObjectRun(1000); hi-lo != 1 {
						t.Errorf("ObjectRun(1000) = [%d,%d), want one pair", lo, hi)
					}
					return
				}
				os := tab.OS()
				if len(os) != 512 || os[0] != 745 || os[1] != 255 {
					t.Errorf("OS = %d words starting %v, want 512 starting [745 255]", len(os), os[:min(2, len(os))])
				}
			}(r%2 == 1)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

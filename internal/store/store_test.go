package store

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"inferray/internal/sorting"
)

func TestTableNormalizeSortsAndDedups(t *testing.T) {
	var tab Table
	tab.Append(5, 1)
	tab.Append(3, 2)
	tab.Append(5, 1)
	tab.Append(3, 1)
	tab.Normalize()
	want := []uint64{3, 1, 3, 2, 5, 1}
	if !reflect.DeepEqual(tab.Pairs(), want) {
		t.Fatalf("got %v want %v", tab.Pairs(), want)
	}
	if tab.Size() != 3 {
		t.Fatalf("size %d want 3", tab.Size())
	}
}

func TestTablePanicsOnDirtyRead(t *testing.T) {
	var tab Table
	tab.Append(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Pairs on a dirty table must panic")
		}
	}()
	tab.Pairs()
}

func TestTableOSViewLazyAndInvalidated(t *testing.T) {
	var tab Table
	tab.AppendPairs([]uint64{1, 9, 2, 8, 3, 7})
	tab.Normalize()
	os := tab.OS()
	want := []uint64{7, 3, 8, 2, 9, 1}
	if !reflect.DeepEqual(os, want) {
		t.Fatalf("OS view %v want %v", os, want)
	}
	// Same backing array until invalidated.
	if &tab.OS()[0] != &os[0] {
		t.Fatal("OS view must be cached")
	}
	tab.Append(0, 99)
	tab.Normalize()
	os2 := tab.OS()
	if len(os2) != 8 || os2[len(os2)-2] != 99 {
		t.Fatalf("OS cache not rebuilt after mutation: %v", os2)
	}
}

func TestTableRuns(t *testing.T) {
	var tab Table
	tab.AppendPairs([]uint64{1, 5, 2, 1, 2, 4, 2, 9, 7, 0})
	tab.Normalize()
	lo, hi := tab.SubjectRun(2)
	if lo != 1 || hi != 4 {
		t.Fatalf("SubjectRun(2) = [%d,%d), want [1,4)", lo, hi)
	}
	lo, hi = tab.SubjectRun(3)
	if lo != hi {
		t.Fatal("absent subject must give empty run")
	}
	lo, hi = KeyRun(tab.OS(), 4)
	if hi-lo != 1 {
		t.Fatalf("KeyRun(OS(), 4) width %d, want 1", hi-lo)
	}
	if !tab.Contains(2, 4) || tab.Contains(2, 5) || tab.Contains(9, 9) {
		t.Fatal("Contains wrong")
	}
}

func TestStoreEnsureGrowAndSize(t *testing.T) {
	st := New(2)
	st.Add(0, 1, 2)
	st.Add(5, 3, 4) // beyond initial size: must grow
	st.Normalize()
	if st.NumSlots() < 6 {
		t.Fatalf("slots %d, want >= 6", st.NumSlots())
	}
	if st.Size() != 2 {
		t.Fatalf("size %d, want 2", st.Size())
	}
	if st.Table(1) != nil {
		t.Fatal("untouched slot must stay nil")
	}
	if !st.Contains(5, 3, 4) || st.Contains(5, 4, 3) {
		t.Fatal("Contains wrong")
	}
}

func TestStoreForEachOrder(t *testing.T) {
	st := New(3)
	st.Add(2, 10, 11)
	st.Add(0, 1, 2)
	st.Normalize()
	var got [][3]uint64
	st.ForEach(func(pidx int, s, o uint64) bool {
		got = append(got, [3]uint64{uint64(pidx), s, o})
		return true
	})
	want := [][3]uint64{{0, 1, 2}, {2, 10, 11}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// Clone returns a deep copy of the store, marks included. Only tests
// copy a store; the engine keeps one.
func (st *Store) Clone() *Store {
	c := New(len(st.tables))
	for i, t := range st.tables {
		if t != nil {
			c.tables[i] = &Table{
				pairs:   slices.Clone(t.pairs),
				marks:   slices.Clone(t.marks),
				dirty:   t.dirty,
				version: t.version,
			}
		}
	}
	return c
}

func TestStoreClone(t *testing.T) {
	st := New(1)
	st.Add(0, 1, 2)
	st.Normalize()
	c := st.Clone()
	c.Add(0, 3, 4)
	c.Normalize()
	if st.Size() != 1 || c.Size() != 2 {
		t.Fatal("clone aliases original")
	}
}

// TestMergeRoundFigure5 replays the exact example of Figure 5:
// main = (1,1)(1,2)(1,8)(9,7) [as one property table's s,o pairs],
// inferred = (1,2)(1,6)(4,3)(3,7)(1,2); after the round main must be the
// union and new must hold exactly the pairs not previously in main.
func TestMergeRoundFigure5(t *testing.T) {
	main := New(1)
	main.Ensure(0).AppendPairs([]uint64{1, 1, 1, 2, 1, 8, 9, 7})
	main.Normalize()

	inferred := New(1)
	inferred.Ensure(0).AppendPairs([]uint64{1, 2, 4, 3, 1, 6, 3, 7, 1, 2})

	delta := MergeRound(main, false, false, inferred)

	wantMain := []uint64{1, 1, 1, 2, 1, 6, 1, 8, 3, 7, 4, 3, 9, 7}
	if !reflect.DeepEqual(main.Table(0).Pairs(), wantMain) {
		t.Fatalf("main after merge = %v, want %v", main.Table(0).Pairs(), wantMain)
	}
	wantNew := []uint64{1, 6, 3, 7, 4, 3}
	if !reflect.DeepEqual(delta.Table(0).Pairs(), wantNew) {
		t.Fatalf("new = %v, want %v", delta.Table(0).Pairs(), wantNew)
	}
	if got := changedTables(delta); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("delta tables = %v, want [0]", got)
	}
}

// changedTables lists the property indexes of a store's non-empty
// tables — of a round's delta, the tables that round changed.
func changedTables(st *Store) []int {
	out := []int{}
	st.ForEachTable(func(pidx int, _ *Table) bool {
		out = append(out, pidx)
		return true
	})
	return out
}

func TestMergeRoundEmptyDelta(t *testing.T) {
	main := New(1)
	main.Ensure(0).AppendPairs([]uint64{1, 2})
	main.Normalize()
	inferred := New(1)
	inferred.Ensure(0).AppendPairs([]uint64{1, 2}) // pure duplicate
	delta := MergeRound(main, false, false, inferred)
	if delta.Size() != 0 {
		t.Fatalf("delta size %d, want 0", delta.Size())
	}
	if main.Size() != 1 {
		t.Fatal("main must be unchanged")
	}
}

// randomOutputs draws 1–4 rule-output stores over nProps properties with
// heavily overlapping tables and pairs, plus their concatenation into a
// single store — what the reasoner used to build before every merge.
func randomOutputs(rng *rand.Rand, nProps, maxPairs int, universe int) (outs []*Store, concat *Store) {
	concat = New(nProps)
	for k := 1 + rng.Intn(4); k > 0; k-- {
		out := New(nProps)
		for i := rng.Intn(maxPairs); i > 0; i-- {
			p, s, o := rng.Intn(nProps), uint64(rng.Intn(universe)), uint64(rng.Intn(universe))
			out.Add(p, s, o)
			concat.Add(p, s, o)
		}
		outs = append(outs, out)
	}
	return outs, concat
}

// sameTables reports whether two stores hold identical tables.
func sameTables(a, b *Store) bool {
	if a.NumSlots() != b.NumSlots() || a.Size() != b.Size() {
		return false
	}
	same := true
	a.ForEachTable(func(pidx int, tab *Table) bool {
		other := b.Table(pidx)
		if other == nil || !reflect.DeepEqual(tab.RawPairs(), other.RawPairs()) {
			same = false
		}
		return same
	})
	return same
}

// TestMergeRoundQuick: for random main contents and 1–4 overlapping
// output stores, merging must equal the map-based oracle and merging
// the outputs' concatenation, sequentially and in parallel.
func TestMergeRoundQuick(t *testing.T) {
	f := func(seed int64, parallel bool) bool {
		rng := rand.New(rand.NewSource(seed))
		nProps := 1 + rng.Intn(4)
		main := New(nProps)
		oracleMain := map[[3]uint64]bool{}
		for i := 0; i < rng.Intn(60); i++ {
			p, s, o := rng.Intn(nProps), uint64(rng.Intn(9)), uint64(rng.Intn(9))
			main.Add(p, s, o)
			oracleMain[[3]uint64{uint64(p), s, o}] = true
		}
		main.Normalize()
		outs, concat := randomOutputs(rng, nProps, 40, 9)
		oracleNew := map[[3]uint64]bool{}
		concat.ForEach(func(pidx int, s, o uint64) bool {
			if k := [3]uint64{uint64(pidx), s, o}; !oracleMain[k] {
				oracleNew[k] = true
			}
			return true
		})
		mainConcat := main.Clone()
		delta := MergeRound(main, parallel, false, outs...)
		deltaConcat := MergeRound(mainConcat, parallel, false, concat)
		if !sameTables(main, mainConcat) || !sameTables(delta, deltaConcat) {
			return false
		}

		gotNew := map[[3]uint64]bool{}
		delta.ForEach(func(pidx int, s, o uint64) bool {
			gotNew[[3]uint64{uint64(pidx), s, o}] = true
			return true
		})
		if !reflect.DeepEqual(gotNew, oracleNew) {
			return false
		}
		// Main must now contain both sets, sorted and deduplicated.
		want := len(oracleMain) + len(oracleNew)
		if main.Size() != want {
			return false
		}
		ok := true
		main.ForEachTable(func(pidx int, tab *Table) bool {
			if !sorting.IsSortedPairs(tab.Pairs()) {
				ok = false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestUnionHelper(t *testing.T) {
	a := New(1)
	a.Ensure(0).AppendPairs([]uint64{1, 2})
	a.Normalize()
	b := New(2)
	b.Ensure(0).AppendPairs([]uint64{1, 2, 3, 4})
	b.Ensure(1).AppendPairs([]uint64{5, 6})
	b.Normalize()
	Union(a, b)
	if a.Size() != 3 {
		t.Fatalf("union size %d, want 3", a.Size())
	}
}

// TestMergeRoundParallelMatchesSerial: for random inputs, the parallel
// and serial merge paths must produce byte-identical main and delta
// stores, whether the round arrives as 1–4 overlapping outputs or as
// their concatenation.
func TestMergeRoundParallelMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nProps := 1 + rng.Intn(6)
		mainSerial := New(nProps)
		for i := 0; i < rng.Intn(80); i++ {
			mainSerial.Add(rng.Intn(nProps), uint64(rng.Intn(12)), uint64(rng.Intn(12)))
		}
		mainSerial.Normalize()
		outs, concat := randomOutputs(rng, nProps, 50, 12)
		mainParallel := mainSerial.Clone()

		deltaS := MergeRound(mainSerial, false, false, concat)
		deltaP := MergeRound(mainParallel, true, false, outs...)
		return sameTables(mainSerial, mainParallel) && sameTables(deltaS, deltaP)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMergeRoundVersions: a merge round bumps the version of exactly the
// tables its delta names.
func TestMergeRoundVersions(t *testing.T) {
	main := New(3)
	main.Ensure(0).AppendPairs([]uint64{1, 2})
	main.Ensure(1).AppendPairs([]uint64{3, 4})
	main.Normalize()
	v0, v1 := main.Table(0).Version(), main.Table(1).Version()

	inferred := New(3)
	inferred.Ensure(0).AppendPairs([]uint64{1, 2}) // duplicate: no change
	inferred.Ensure(1).AppendPairs([]uint64{5, 6}) // fresh
	inferred.Ensure(2).AppendPairs([]uint64{7, 8}) // fresh, new table

	delta := MergeRound(main, false, false, inferred)
	if got := changedTables(delta); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("delta tables = %v, want [1 2]", got)
	}
	if main.Table(0).Version() != v0 {
		t.Error("unchanged table's version bumped")
	}
	if main.Table(1).Version() <= v1 {
		t.Error("changed table's version not bumped")
	}
	if main.Table(2).Version() == 0 {
		t.Error("new table's version not bumped")
	}
}

// TestRewriteTerms: every subject/object occurrence moves to the new ID
// and the table stays normalized.
func TestRewriteTerms(t *testing.T) {
	st := New(2)
	st.Ensure(0).AppendPairs([]uint64{5, 9, 9, 2, 1, 1})
	st.Ensure(1).AppendPairs([]uint64{3, 4})
	st.Normalize()
	v1 := st.Table(1).Version()
	st.RewriteTerms(map[uint64]uint64{9: 0})
	want := []uint64{0, 2, 1, 1, 5, 0}
	if !reflect.DeepEqual(st.Table(0).Pairs(), want) {
		t.Fatalf("rewritten table = %v, want %v", st.Table(0).Pairs(), want)
	}
	if st.Table(1).Version() != v1 {
		t.Error("untouched table's version bumped by RewriteTerms")
	}
	if !sorting.IsSortedPairs(st.Table(0).Pairs()) {
		t.Error("rewritten table not re-normalized")
	}
}

// Stats are exact on subjects, upgrade objects to exact once the OS
// cache exists, and invalidate when the table changes.
func TestTableStats(t *testing.T) {
	var tab Table
	// subjects {1,2}: runs (1,2)(1,3)(2,3); objects {2,3}
	tab.AppendPairs([]uint64{1, 2, 1, 3, 2, 3})
	tab.Normalize()

	st := tab.Stats()
	if st.Pairs != 3 || st.Subjects != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ObjectsExact {
		t.Fatal("objects exact without an OS cache")
	}

	_ = tab.OS()
	st = tab.Stats()
	if !st.ObjectsExact || st.Objects != 2 {
		t.Fatalf("post-OS stats = %+v", st)
	}

	tab.Append(9, 9)
	tab.Normalize()
	st = tab.Stats()
	if st.Pairs != 4 || st.Subjects != 3 {
		t.Fatalf("stats after mutation = %+v (stale cache?)", st)
	}
}

// TestNormalizeParallelMatchesSerial: the pooled normalization must
// produce byte-identical tables to the serial path on random stores,
// including the ≤1-dirty-table fast path.
func TestNormalizeParallelMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nProps := 1 + rng.Intn(8)
		serial := New(nProps)
		for i := 0; i < rng.Intn(120); i++ {
			serial.Add(rng.Intn(nProps), uint64(rng.Intn(15)), uint64(rng.Intn(15)))
		}
		par := serial.Clone()
		serial.Normalize()
		par.NormalizeParallel()
		if serial.Size() != par.Size() {
			return false
		}
		same := true
		serial.ForEachTable(func(pidx int, tab *Table) bool {
			other := par.Table(pidx)
			if other == nil || !reflect.DeepEqual(tab.Pairs(), other.Pairs()) {
				same = false
				return false
			}
			return true
		})
		return same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestTableDeletePairs(t *testing.T) {
	var tab Table
	tab.AppendPairs([]uint64{1, 1, 1, 2, 2, 5, 3, 3, 9, 9})
	tab.Normalize()
	v0 := tab.Version()
	_ = tab.OS()

	var del Table
	del.AppendPairs([]uint64{1, 2, 2, 5, 7, 7}) // (7,7) absent: ignored
	del.Normalize()

	if n := tab.DeletePairs(del.Pairs()); n != 2 {
		t.Fatalf("removed %d pairs, want 2", n)
	}
	want := []uint64{1, 1, 3, 3, 9, 9}
	if !reflect.DeepEqual(tab.Pairs(), want) {
		t.Fatalf("after delete = %v, want %v", tab.Pairs(), want)
	}
	if tab.Version() <= v0 {
		t.Error("delete must bump the version counter")
	}
	if !sorting.IsSortedPairs(tab.Pairs()) {
		t.Error("delete must preserve the sort")
	}
	// The ⟨o,s⟩ cache and planner stats must reflect the deletion.
	if os := tab.OS(); len(os) != 6 || os[1] != 1 {
		t.Fatalf("OS view not invalidated: %v", os)
	}
	if st := tab.Stats(); st.Pairs != 3 || st.Subjects != 3 {
		t.Fatalf("stats stale after delete: %+v", st)
	}
	// Deleting nothing leaves the version alone.
	v1 := tab.Version()
	if n := tab.DeletePairs([]uint64{7, 7}); n != 0 || tab.Version() != v1 {
		t.Fatal("no-op delete must not bump the version")
	}
}

// TestTableDeletePairsQuick: deleting a random subset matches the
// map-based oracle for arbitrary table contents.
func TestTableDeletePairsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tab, del Table
		oracle := map[[2]uint64]bool{}
		for i := 0; i < rng.Intn(80); i++ {
			s, o := uint64(rng.Intn(10)), uint64(rng.Intn(10))
			tab.Append(s, o)
			oracle[[2]uint64{s, o}] = true
		}
		for i := 0; i < rng.Intn(40); i++ {
			s, o := uint64(rng.Intn(12)), uint64(rng.Intn(12))
			del.Append(s, o)
			delete(oracle, [2]uint64{s, o})
		}
		tab.Normalize()
		del.Normalize()
		tab.DeletePairs(del.Pairs())
		if tab.Size() != len(oracle) {
			return false
		}
		p := tab.Pairs()
		for i := 0; i < len(p); i += 2 {
			if !oracle[[2]uint64{p[i], p[i+1]}] {
				return false
			}
		}
		return sorting.IsSortedPairs(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStoreDelete(t *testing.T) {
	st := New(3)
	st.Ensure(0).AppendPairs([]uint64{1, 2, 3, 4})
	st.Ensure(2).AppendPairs([]uint64{5, 6})
	st.Normalize()
	del := New(3)
	del.Ensure(0).AppendPairs([]uint64{3, 4})
	del.Ensure(1).AppendPairs([]uint64{9, 9}) // table absent in st
	del.Ensure(2).AppendPairs([]uint64{5, 6})
	del.Normalize()
	if n := st.Delete(del); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if st.Size() != 1 || !st.Contains(0, 1, 2) || st.Contains(2, 5, 6) {
		t.Fatalf("store after delete wrong: size=%d", st.Size())
	}
}

// TestRewriteTermsManyTables: the pooled rewrite path (more than one
// table) matches per-table expectations.
func TestRewriteTermsManyTables(t *testing.T) {
	st := New(4)
	for p := 0; p < 4; p++ {
		st.Ensure(p).AppendPairs([]uint64{9, uint64(p), uint64(p), 9})
	}
	st.Normalize()
	st.RewriteTerms(map[uint64]uint64{9: 100})
	for p := 0; p < 4; p++ {
		want := []uint64{uint64(p), 100, 100, uint64(p)}
		if p == 0 {
			// 0,100 sorts before 100,0.
			want = []uint64{0, 100, 100, 0}
		}
		if !reflect.DeepEqual(st.Table(p).Pairs(), want) {
			t.Fatalf("table %d = %v, want %v", p, st.Table(p).Pairs(), want)
		}
		if !sorting.IsSortedPairs(st.Table(p).Pairs()) {
			t.Errorf("table %d not re-normalized", p)
		}
	}
}

// TestReserveThenAppendDoesNotGrow: a loader that counted its pairs
// reserves once and appends in place; the reserve itself changes
// nothing a reader can see.
func TestReserveThenAppendDoesNotGrow(t *testing.T) {
	var tab Table
	tab.Reserve(1000)
	if tab.Size() != 0 || tab.Version() != 0 {
		t.Fatalf("Reserve changed contents: size %d version %d", tab.Size(), tab.Version())
	}
	before := cap(tab.RawPairs())
	if before < 2000 {
		t.Fatalf("cap %d after Reserve(1000), want at least 2000", before)
	}
	for i := uint64(0); i < 1000; i++ {
		tab.Append(i, i+1)
	}
	if got := cap(tab.RawPairs()); got != before {
		t.Fatalf("pair list grew from cap %d to %d after a counted reserve", before, got)
	}
	// Repeated small reserves on a populated table stay amortized: the
	// list must not be re-allocated on every call.
	grows := 0
	for i := uint64(0); i < 1000; i++ {
		c := cap(tab.RawPairs())
		tab.Reserve(1)
		tab.Append(i, i)
		if cap(tab.RawPairs()) != c {
			grows++
		}
	}
	if grows > 10 {
		t.Fatalf("1000 single-pair reserves re-allocated %d times", grows)
	}
}

func TestNormalizeParallelAcrossStores(t *testing.T) {
	a, b := New(4), New(2)
	for i := uint64(50); i > 0; i-- {
		a.Add(int(i%4), i, i)
		a.Add(int(i%4), i, i) // duplicate
		b.Add(int(i%2), i, 1)
	}
	a.NormalizeParallel()
	b.NormalizeParallel()
	for _, st := range []*Store{a, b} {
		st.ForEachTable(func(pidx int, tab *Table) bool {
			if !sorting.IsSortedPairs(tab.Pairs()) { // Pairs panics on a dirty table
				t.Errorf("table %d not sorted", pidx)
			}
			return true
		})
	}
	if a.Size() != 50 || b.Size() != 50 {
		t.Fatalf("sizes %d, %d after dedup, want 50, 50", a.Size(), b.Size())
	}
}

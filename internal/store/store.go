// Package store implements Inferray's triple-store layout (§3–4 of the
// paper): vertical partitioning into one property table per property,
// each a flat dynamic array of 64-bit ⟨subject, object⟩ pairs kept sorted
// on ⟨s,o⟩ and free of duplicates, with a lazily materialized ⟨o,s⟩-sorted
// cache for the joins that need object order. All inference reads are
// sequential scans or galloping searches over these arrays.
package store

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"inferray/internal/sorting"
)

// Table is one property table: a flat ⟨s,o⟩ pair list. After Normalize
// the primary list is sorted on ⟨s,o⟩ and duplicate-free; OS() serves the
// ⟨o,s⟩-sorted view, built the first time something probes by object. A
// small change patches a present cache in place; a bulk change drops it
// (the paper's clearable cache, §4.2) — settleOS decides.
//
// marks is the asserted record: bit i is set when pair i was loaded
// explicitly rather than only derived. It is nil while no pair of the
// table is asserted, positional over a normalized table, and carried
// through every step that moves pairs (merge, DeletePairs, RewriteTerms).
// Nothing may append to a table that holds marks.
type Table struct {
	pairs   []uint64
	marks   []uint64
	os      []uint64 // cache: pairs re-ordered as (o,s), sorted
	osOK    bool
	dirty   bool   // true when unsorted appends are pending
	version uint64 // bumped on every content mutation

	// Planner statistics, cached per version (guarded by osMu).
	stats        TableStats
	statsOK      bool
	statsVersion uint64

	osMu sync.Mutex // guards lazy construction of os (rules run in parallel)

	// home is the store that created the table (Ensure); nil for a table
	// that stands alone — a round's delta, a test's. It supplies the
	// event counters.
	home *Store
}

// Version returns the table's mutation counter: it increases every time
// the table's contents change (appends, merges, rewrites), so readers
// can detect staleness without diffing pairs.
func (t *Table) Version() uint64 { return t.version }

// Append adds one pair. The table becomes dirty until Normalize. Like
// every mutation it requires exclusive access, which is what makes the
// unlocked look at osOK safe: no OS() can be running. The cache itself
// is only ever dropped through settleOS.
func (t *Table) Append(s, o uint64) {
	t.pairs = append(t.pairs, s, o)
	t.dirty = true
	if t.osOK {
		t.settleOS(nil)
	}
	t.version++
}

// Reserve makes room for n further pairs, so a loader that has counted
// its pairs appends them without growing the list again. An empty table
// gets exactly that room; a populated one grows by at least append's
// own step, which keeps repeated small reserves amortized.
func (t *Table) Reserve(n int) {
	t.pairs = slices.Grow(t.pairs, 2*n)
}

// AppendPairs bulk-adds a flat pair list.
func (t *Table) AppendPairs(pairs []uint64) {
	if len(pairs) == 0 {
		return
	}
	t.pairs = append(t.pairs, pairs...)
	t.dirty = true
	if t.osOK {
		t.settleOS(nil) // exclusive access, as in Append
	}
	t.version++
}

// Restore replaces the table with a persisted one: an owned pair list
// that is ⟨s,o⟩-sorted and duplicate-free, its mark words (nil, or ⌈n/64⌉
// words with no bit set past the last pair) — the snapshot reader checks
// both — and the mutation counter it was persisted with, which keeps
// version-based pairing (snapshot image ↔ WAL tail) stable across a
// save/load cycle.
func (t *Table) Restore(pairs, marks []uint64, version uint64) {
	t.pairs, t.marks, t.version = pairs, marks, version
	t.dirty = false
	t.settleOS(nil)
}

// DeletePairs removes every ⟨s,o⟩ pair of del — a normalized flat pair
// list (⟨s,o⟩-sorted, duplicate-free) — from the table; pairs absent from
// the table are ignored. The table must be normalized and stays
// normalized (removal preserves the sort), so no re-sort is needed. A del
// that is small against the table is located by galloping and only the
// pairs behind the first hit move, marks and a present ⟨o,s⟩ cache with
// them; a larger one is one linear merge pass that drops the cache. The
// version bump invalidates the cached planner statistics. Returns the
// number of pairs removed. Like Normalize, it requires exclusive access.
func (t *Table) DeletePairs(del []uint64) int {
	if t.dirty {
		panic("store: DeletePairs on dirty table; call Normalize first")
	}
	if len(del) == 0 || len(t.pairs) == 0 {
		return 0
	}
	if spliceable(t.pairs, del) {
		return t.cut(del)
	}
	pairs := t.pairs
	out := pairs[:0]                      // in-place compaction: write index never passes read index
	marks := make([]uint64, len(t.marks)) // rebuilt: a mark moves down with its pair
	di := 0
	removed := 0
	for i := 0; i < len(pairs); i += 2 {
		s, o := pairs[i], pairs[i+1]
		for di < len(del) && (del[di] < s || (del[di] == s && del[di+1] < o)) {
			di += 2
		}
		if di < len(del) && del[di] == s && del[di+1] == o {
			removed++
			continue
		}
		if t.Marked(i / 2) {
			setBit(marks, len(out)/2)
		}
		out = append(out, s, o)
	}
	if removed == 0 {
		return 0
	}
	t.pairs = out
	if t.marks != nil {
		t.marks = marks[:(len(out)/2+63)/64]
	}
	t.version++
	t.settleOS(nil)
	return removed
}

// cut is DeletePairs for a small del: the mirror image of splice.
func (t *Table) cut(del []uint64) int {
	var at []int
	var gone []uint64
	t.Locate(del, func(i, p int) {
		at, gone = append(at, p), append(gone, del[2*i], del[2*i+1])
	})
	if len(at) == 0 {
		return 0
	}
	n := t.Size()
	t.pairs = closeGaps(t.pairs, at)
	if t.marks != nil {
		t.marks = closeBits(t.marks, n, at)
	}
	t.version++
	t.settleOS(func(os []uint64) []uint64 {
		return closeGaps(os, seek(os, swapSorted(gone)))
	})
	return len(at)
}

// Normalize sorts the primary list on ⟨s,o⟩ and removes duplicates using
// the operating-range sort selector (§5.4). It is a no-op on clean tables.
func (t *Table) Normalize() {
	if !t.dirty {
		return
	}
	if t.marks != nil {
		panic("store: append to a table that holds asserted marks; merge instead")
	}
	t.pairs = sorting.SortPairs(t.pairs, true)
	t.dirty = false
}

// Marked reports whether pair i carries the asserted mark.
func (t *Table) Marked(i int) bool { return t.marks != nil && getBit(t.marks, i) }

// Marks returns the mark words: nil when no pair was ever marked, else
// ⌈Size/64⌉ words with no bit set past the last pair. Read-only.
func (t *Table) Marks() []uint64 { return t.marks }

// MarkAll marks every pair asserted: an adopted batch's input.
func (t *Table) MarkAll() {
	t.marks = make([]uint64, (t.Size()+63)/64)
	for i := range t.Size() {
		setBit(t.marks, i)
	}
}

// Mark sets the asserted mark of every pair of sub — a normalized flat
// pair list — that the table holds. Marks are not content: the version
// does not move.
func (t *Table) Mark(sub []uint64) {
	if t.marks == nil {
		t.marks = make([]uint64, (t.Size()+63)/64)
	}
	t.Locate(sub, func(_, at int) { setBit(t.marks, at) })
}

// Unmark clears the asserted mark of ⟨s,o⟩ and reports whether it was set.
func (t *Table) Unmark(s, o uint64) (was bool) {
	t.Locate([]uint64{s, o}, func(_, at int) {
		if was = t.Marked(at); was {
			t.marks[at>>6] &^= 1 << (uint(at) & 63)
		}
	})
	return was
}

// Locate calls fn(i, at) for every pair i of sub — a normalized flat pair
// list — that the table holds, at being that pair's index in the table.
// It gallops forward from hit to hit, so a short sub does not scan the
// table. The table must be normalized.
func (t *Table) Locate(sub []uint64, fn func(i, at int)) {
	p, n, at := t.Pairs(), t.Size(), 0
	for i := 0; i < len(sub); i += 2 {
		at = gallopPair(p, n, at, sub[i], sub[i+1])
		if at < n && p[2*at] == sub[i] && p[2*at+1] == sub[i+1] {
			fn(i/2, at)
		}
	}
}

func getBit(m []uint64, i int) bool { return m[i>>6]>>(uint(i)&63)&1 != 0 }

func setBit(m []uint64, i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// Pairs returns the ⟨s,o⟩-sorted pair list. The table must be normalized.
func (t *Table) Pairs() []uint64 {
	if t.dirty {
		panic("store: Pairs on dirty table; call Normalize first")
	}
	return t.pairs
}

// RawPairs returns the pair list without asserting sortedness (loaders
// and mergers use it).
func (t *Table) RawPairs() []uint64 { return t.pairs }

// Size returns the number of pairs.
func (t *Table) Size() int { return len(t.pairs) / 2 }

// Empty reports whether the table holds no pairs.
func (t *Table) Empty() bool { return len(t.pairs) == 0 }

// OS returns the ⟨o,s⟩-sorted view: a flat pair list whose even indices
// are objects and odd indices subjects, sorted on ⟨o,s⟩. It is computed
// lazily and cached until the table changes (§4.2).
func (t *Table) OS() []uint64 {
	if t.dirty {
		panic("store: OS on dirty table; call Normalize first")
	}
	t.osMu.Lock()
	defer t.osMu.Unlock()
	if !t.osOK {
		t.os = swapSorted(t.pairs)
		t.osOK = true
		t.home.count(osBuilt)
	}
	return t.os
}

// Footprint reports the bytes the table holds, by capacity: its pair
// list, its mark words, and its ⟨o,s⟩ cache (0 while none is built).
// Safe beside concurrent readers.
func (t *Table) Footprint() (pairs, marks, os int) {
	t.osMu.Lock()
	defer t.osMu.Unlock()
	if t.osOK {
		os = 8 * cap(t.os)
	}
	return 8 * cap(t.pairs), 8 * cap(t.marks), os
}

// CachedOS returns the ⟨o,s⟩ cache as it stands, without building it;
// ok is false when the table holds none. The engine's self-check
// compares a patched cache with a rebuild through it.
func (t *Table) CachedOS() (os []uint64, ok bool) {
	t.osMu.Lock()
	defer t.osMu.Unlock()
	return t.os, t.osOK
}

// PairsWithObjectIn appends to dst, as ⟨s,o⟩ pairs in no particular
// order, every pair of the table whose object is in set. It reads a run
// per member of the cached ⟨o,s⟩ list when one exists and scans the
// objects against the set otherwise: it never builds the list, which
// would sort a copy of the table to look up a few terms. A probe that
// repeats — a rule's join, EQ-REP's partners, a query — takes OS().
func (t *Table) PairsWithObjectIn(set *TermSet, dst []uint64) []uint64 {
	if os, ok := t.CachedOS(); ok {
		set.Each(func(x uint64) {
			lo, hi := KeyRun(os, x)
			for i := lo; i < hi; i++ {
				dst = append(dst, os[2*i+1], os[2*i])
			}
		})
		return dst
	}
	p, lo, words := t.Pairs(), set.lo, set.words
	for i := 1; i < len(p); i += 2 {
		if has(words, p[i]-lo) {
			dst = append(dst, p[i-1], p[i])
		}
	}
	return dst
}

// TableStats summarizes a table for the query planner's selectivity
// estimates (§5.1 of the paper: dense numbering keeps these cheap).
// Pairs is the triple count; Subjects is the exact number of distinct
// subjects (= the number of subject runs in the ⟨s,o⟩ order); Objects
// is the number of distinct objects — exact when the ⟨o,s⟩ cache was
// materialized at collection time (ObjectsExact), otherwise estimated
// as Subjects so that stats collection never forces an OS build.
type TableStats struct {
	Pairs        int
	Subjects     int
	Objects      int
	ObjectsExact bool
}

// Stats returns the table's planner statistics, computed lazily and
// cached until the table's version changes. The table must be
// normalized. Safe for concurrent use (shares osMu with the OS cache).
func (t *Table) Stats() TableStats {
	if t.dirty {
		panic("store: Stats on dirty table; call Normalize first")
	}
	t.osMu.Lock()
	defer t.osMu.Unlock()
	// Recompute when stale, and also when the OS cache has appeared
	// since the last computation (upgrading Objects to exact).
	if t.statsOK && t.statsVersion == t.version && (t.stats.ObjectsExact || !t.osOK) {
		return t.stats
	}
	st := TableStats{Pairs: len(t.pairs) / 2}
	st.Subjects = countRuns(t.pairs)
	if t.osOK {
		st.Objects = countRuns(t.os)
		st.ObjectsExact = true
	} else {
		st.Objects = st.Subjects
	}
	t.stats, t.statsOK, t.statsVersion = st, true, t.version
	return st
}

// countRuns counts distinct keys (even positions) of a key-sorted flat
// pair list.
func countRuns(pairs []uint64) int {
	n := 0
	for i := 0; i < len(pairs); i += 2 {
		if i == 0 || pairs[i] != pairs[i-2] {
			n++
		}
	}
	return n
}

// settleOS is the one place that decides what a content change does to
// the ⟨o,s⟩ cache, under osMu: cache readers synchronize only on osMu
// inside OS(), so an unlocked clear races a concurrent lazy build (the
// server's concurrent readers make the window permanent). A present
// cache is patched when the caller hands a patch — which receives the
// list and returns it with the same change applied — and dropped
// otherwise, for the next OS() to rebuild: the bulk rule of §4.2.
func (t *Table) settleOS(patch func(os []uint64) []uint64) {
	t.osMu.Lock()
	defer t.osMu.Unlock()
	switch {
	case !t.osOK: // nothing cached, nothing to decide
	case patch != nil:
		t.os = patch(t.os)
		t.home.count(osPatched)
	default:
		t.osOK, t.os = false, nil
		t.home.count(osDropped)
	}
}

// SubjectRun returns the half-open pair-index range [lo, hi) of pairs
// whose subject equals s. The table must be normalized.
func (t *Table) SubjectRun(s uint64) (lo, hi int) {
	return KeyRun(t.Pairs(), s)
}

// SubjectRunFrom is SubjectRun for a caller probing subjects in
// ascending order: from is a pair index at or before the run — the
// previous run's hi — and the search gallops forward from it, so a sweep
// over a few subjects costs O(log distance) each, not a table scan.
func (t *Table) SubjectRunFrom(s uint64, from int) (lo, hi int) {
	p := t.Pairs()
	n := len(p) / 2
	lo = GallopLowerBound(p, n, from, s)
	hi = lo
	for hi < n && p[2*hi] == s {
		hi++
	}
	return lo, hi
}

// ObjectRun returns the half-open pair-index range [lo, hi) in the OS
// view of pairs whose object equals o. A caller probing many objects
// takes OS() once and calls KeyRun on it: each ObjectRun locks osMu.
func (t *Table) ObjectRun(o uint64) (lo, hi int) {
	return KeyRun(t.OS(), o)
}

// Contains reports whether the pair (s, o) is present.
func (t *Table) Contains(s, o uint64) bool {
	p := t.Pairs()
	lo, hi := KeyRun(p, s)
	for i := lo; i < hi; i++ {
		if p[2*i+1] == o {
			return true
		}
		if p[2*i+1] > o {
			return false
		}
	}
	return false
}

// KeyRun binary-searches a key-sorted flat pair list — Pairs() keyed on
// subject, OS() on object — for the run of pairs whose key (even index)
// equals k, returned as pair indices.
func KeyRun(pairs []uint64, k uint64) (lo, hi int) {
	n := len(pairs) / 2
	lo = lowerBound(pairs, n, k)
	hi = lo
	for hi < n && pairs[2*hi] == k {
		hi++
	}
	return lo, hi
}

// lowerBound returns the first pair index whose key is >= k.
func lowerBound(pairs []uint64, n int, k uint64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pairs[2*mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// GallopLowerBound returns the first pair index in [from, n) of a
// key-sorted flat pair list whose key is >= k, doubling the step from
// 'from' before binary-searching the bracketed range — O(log distance)
// instead of O(log n) when the target is near the cursor.
func GallopLowerBound(pairs []uint64, n, from int, k uint64) int {
	if from >= n {
		return n
	}
	if pairs[2*from] >= k {
		return from
	}
	// Invariant: pairs[2*lo] < k; the answer lies in (lo, hi].
	lo := from
	step := 1
	for lo+step < n && pairs[2*(lo+step)] < k {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, n)
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if pairs[2*mid] < k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Store is a set of property tables indexed by dense property index
// (dictionary.PropIndex). A nil entry means the property has no triples.
type Store struct {
	tables []*Table
	m      *Metrics
}

// SetMetrics attaches the store's event counters; nil detaches them.
func (st *Store) SetMetrics(m *Metrics) { st.m = m }

// New creates a store sized for the given number of properties; it grows
// automatically when later properties appear.
func New(numProps int) *Store {
	return &Store{tables: make([]*Table, numProps)}
}

// Grow ensures the store can index at least numProps properties.
func (st *Store) Grow(numProps int) {
	for len(st.tables) < numProps {
		st.tables = append(st.tables, nil)
	}
}

// NumSlots returns the size of the property-table index space.
func (st *Store) NumSlots() int { return len(st.tables) }

// Table returns the table at a property index, or nil.
func (st *Store) Table(pidx int) *Table {
	if pidx < 0 || pidx >= len(st.tables) {
		return nil
	}
	return st.tables[pidx]
}

// Ensure returns the table at a property index, creating it if missing.
func (st *Store) Ensure(pidx int) *Table {
	st.Grow(pidx + 1)
	if st.tables[pidx] == nil {
		st.tables[pidx] = &Table{home: st}
	}
	return st.tables[pidx]
}

// Add appends one triple by property index.
func (st *Store) Add(pidx int, s, o uint64) {
	st.Ensure(pidx).Append(s, o)
}

// Normalize normalizes every table.
func (st *Store) Normalize() {
	for _, t := range st.tables {
		if t != nil {
			t.Normalize()
		}
	}
}

// NormalizeParallel normalizes every dirty table, running the per-table
// sorts concurrently on the worker pool (§4.3: property tables are
// independent, so index maintenance parallelizes trivially). Like
// Normalize, it requires exclusive access to the store.
func (st *Store) NormalizeParallel() {
	dirty := make([]*Table, 0, 16)
	for _, t := range st.tables {
		if t != nil && t.dirty {
			dirty = append(dirty, t)
		}
	}
	RunPool(true, len(dirty), func(i int) { dirty[i].Normalize() })
}

// nonEmptyTables lists the tables that hold at least one pair.
func (st *Store) nonEmptyTables() []*Table {
	tabs := make([]*Table, 0, 16)
	for _, t := range st.tables {
		if t != nil && !t.Empty() {
			tabs = append(tabs, t)
		}
	}
	return tabs
}

// RunPool executes fn(0..n-1): in order on the calling goroutine when
// parallel is false, otherwise on min(n, GOMAXPROCS) workers pulling
// indexes from a shared atomic counter. It is the one bounded fan-out
// under every per-table and per-rule step of a materialization.
func RunPool(parallel bool, n int, fn func(i int)) {
	workers := 1
	if parallel {
		workers = min(n, runtime.GOMAXPROCS(0))
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Size returns the total number of triples.
func (st *Store) Size() int {
	n := 0
	for _, t := range st.tables {
		if t != nil {
			n += t.Size()
		}
	}
	return n
}

// Empty reports whether the store holds no triples.
func (st *Store) Empty() bool { return st.Size() == 0 }

// VersionSum folds every table's mutation counter (plus the table
// count, so allocating an empty table registers) into one number: any
// content mutation anywhere in the store changes the sum. Callers use
// it as a cheap change signal — the reasoner derives its query-cache
// generation from it — not as an identity: two different stores may
// share a sum, but one store cannot mutate without its sum moving.
func (st *Store) VersionSum() uint64 {
	n := uint64(0)
	for _, t := range st.tables {
		if t != nil {
			n += t.Version() + 1
		}
	}
	return n
}

// ForEachTable calls fn for every non-empty property table.
func (st *Store) ForEachTable(fn func(pidx int, t *Table) bool) {
	for i, t := range st.tables {
		if t != nil && !t.Empty() {
			if !fn(i, t) {
				return
			}
		}
	}
}

// ForEach calls fn for every triple in table order.
func (st *Store) ForEach(fn func(pidx int, s, o uint64) bool) {
	for i, t := range st.tables {
		if t == nil {
			continue
		}
		p := t.RawPairs()
		for j := 0; j < len(p); j += 2 {
			if !fn(i, p[j], p[j+1]) {
				return
			}
		}
	}
}

// Contains reports whether the triple is present (tables must be
// normalized).
func (st *Store) Contains(pidx int, s, o uint64) bool {
	t := st.Table(pidx)
	return t != nil && !t.Empty() && t.Contains(s, o)
}

// Delete removes every pair of del (both stores normalized) from the
// corresponding tables and returns the total number of pairs removed.
// Touched tables bump their version counters, so planner statistics and
// the ⟨o,s⟩ caches invalidate exactly as they do for insertions.
func (st *Store) Delete(del *Store) int {
	removed := 0
	del.ForEachTable(func(pidx int, dt *Table) bool {
		if t := st.Table(pidx); t != nil && !t.Empty() {
			removed += t.DeletePairs(dt.Pairs())
		}
		return true
	})
	return removed
}

// RewriteTerms replaces every subject/object occurrence of each renames
// key with its value and renormalizes the touched tables, in a single
// pass over the store. The dictionary's resource→property promotions use
// it so terms moved to the property side keep a single identity across
// triples stored before the move; batching the renames keeps a load that
// promotes many terms at one full-store scan instead of one per term.
// Tables rewrite independently (the renames map is only read), so the
// scan runs on the worker pool when more than one table exists. Marks
// follow their pairs: the marked pairs are rewritten on the side and
// marked again once the table is re-sorted, so two pairs a rename made
// equal leave one pair, marked if either was.
func (st *Store) RewriteTerms(renames map[uint64]uint64) {
	if len(renames) == 0 {
		return
	}
	tabs := st.nonEmptyTables()
	RunPool(true, len(tabs), func(k int) {
		t := tabs[k]
		touched := false
		for i, v := range t.pairs {
			if nv, ok := renames[v]; ok {
				t.pairs[i] = nv
				touched = true
			}
		}
		if !touched {
			return
		}
		var marked []uint64
		for i := 0; i < len(t.pairs); i += 2 {
			if t.Marked(i / 2) {
				marked = append(marked, t.pairs[i], t.pairs[i+1])
			}
		}
		t.dirty, t.marks = true, nil
		t.version++
		t.settleOS(nil)
		t.Normalize()
		if len(marked) > 0 {
			t.Mark(sorting.SortPairs(marked, true))
		}
	})
}

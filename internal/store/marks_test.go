package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/snapshot"
	"inferray/internal/sorting"
	"inferray/internal/store"
)

// TestMarksFollowPairs drives one table through random interleavings of
// everything that moves pairs — derived and asserted merges, DeletePairs,
// RewriteTerms, Unmark, a snapshot round trip — against a map oracle:
// after every step the table holds exactly the oracle's pairs, strictly
// sorted, and pair i is marked iff the oracle says that pair is asserted.
func TestMarksFollowPairs(t *testing.T) {
	d := dictionary.New()
	pidx := dictionary.PropIndex(d.EncodeProperty("<p>"))
	ids := make([]uint64, 24)
	for i := range ids {
		ids[i] = d.EncodeResource(fmt.Sprintf("<r%d>", i))
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := store.New(d.NumProperties())
		oracle := map[[2]uint64]bool{} // pair → asserted
		randomPairs := func(n int) *store.Store {
			out := store.New(d.NumProperties())
			for i := 0; i < n; i++ {
				out.Add(pidx, ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
			}
			return out
		}
		for step := 0; step < 60; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			tab := st.Ensure(pidx)
			version := tab.Version()
			switch op := rng.Intn(7); op {
			case 0, 1: // a derived, or an asserted, merge
				asserted := op == 1
				out := randomPairs(1 + rng.Intn(12))
				out.Normalize()
				fresh := 0
				out.ForEach(func(_ int, s, o uint64) bool {
					if _, ok := oracle[[2]uint64{s, o}]; !ok {
						fresh++
					}
					oracle[[2]uint64{s, o}] = oracle[[2]uint64{s, o}] || asserted
					return true
				})
				delta := store.MergeRound(st, rng.Intn(2) == 0, asserted, out)
				if delta.Size() != fresh {
					t.Fatalf("%s: delta holds %d pairs, %d were fresh", label, delta.Size(), fresh)
				}
				if moved := tab.Version() != version; moved != (fresh > 0) {
					t.Fatalf("%s: version moved %t with %d fresh pairs (marking is not content)", label, moved, fresh)
				}
			case 2: // delete a mix of present and absent pairs
				del := randomPairs(rng.Intn(10))
				for pair := range oracle {
					if rng.Intn(4) == 0 {
						del.Add(pidx, pair[0], pair[1])
					}
				}
				del.Normalize()
				want := 0
				del.ForEach(func(_ int, s, o uint64) bool {
					if _, ok := oracle[[2]uint64{s, o}]; ok {
						want++
						delete(oracle, [2]uint64{s, o})
					}
					return true
				})
				if got := st.Delete(del); got != want {
					t.Fatalf("%s: removed %d pairs, want %d", label, got, want)
				}
			case 3: // a promotion-style rewrite that may fuse pairs
				renames := map[uint64]uint64{}
				for i := 0; i <= rng.Intn(2); i++ {
					renames[ids[rng.Intn(len(ids))]] = ids[rng.Intn(len(ids))]
				}
				st.RewriteTerms(renames)
				next := map[[2]uint64]bool{}
				for pair, asserted := range oracle {
					for i, v := range pair {
						if nv, ok := renames[v]; ok {
							pair[i] = nv
						}
					}
					next[pair] = next[pair] || asserted
				}
				oracle = next
			case 4: // retract: clear one mark, present or not
				s, o := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				if was := tab.Unmark(s, o); was != oracle[[2]uint64{s, o}] {
					t.Fatalf("%s: Unmark reported %t, oracle %t", label, was, oracle[[2]uint64{s, o}])
				}
				if _, ok := oracle[[2]uint64{s, o}]; ok {
					oracle[[2]uint64{s, o}] = false
				}
			case 5: // image round trip
				var buf bytes.Buffer
				if err := snapshot.Write(&buf, d, st, snapshot.Meta{}); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var err error
				if _, st, _, err = snapshot.Read(&buf); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			case 6: // a copy carries the marks and shares nothing
				st = cloneViaMerge(st, d.NumProperties())
			}

			tab = st.Ensure(pidx)
			pairs := tab.Pairs()
			if len(pairs)/2 != len(oracle) {
				t.Fatalf("%s: %d pairs, oracle %d", label, len(pairs)/2, len(oracle))
			}
			if !sorting.IsSortedPairs(pairs) {
				t.Fatalf("%s: table not sorted", label)
			}
			for i := 0; i < len(pairs); i += 2 {
				if i > 0 && pairs[i] == pairs[i-2] && pairs[i+1] == pairs[i-1] {
					t.Fatalf("%s: duplicate pair at %d", label, i/2)
				}
				asserted, ok := oracle[[2]uint64{pairs[i], pairs[i+1]}]
				if !ok {
					t.Fatalf("%s: pair %d not in oracle", label, i/2)
				}
				if tab.Marked(i/2) != asserted {
					t.Fatalf("%s: pair %d marked %t, oracle %t", label, i/2, tab.Marked(i/2), asserted)
				}
			}
		}
	}
}

// cloneViaMerge copies a store the only way pairs and marks enter one:
// a derived merge of everything, then an asserted merge of the marked.
func cloneViaMerge(src *store.Store, slots int) *store.Store {
	all, marked := store.New(slots), store.New(slots)
	src.ForEachTable(func(pidx int, t *store.Table) bool {
		for i, p := 0, t.Pairs(); i < len(p); i += 2 {
			all.Add(pidx, p[i], p[i+1])
			if t.Marked(i / 2) {
				marked.Add(pidx, p[i], p[i+1])
			}
		}
		return true
	})
	dst := store.New(slots)
	store.MergeRound(dst, false, false, all)
	store.MergeRound(dst, false, true, marked)
	return dst
}

package hierarchy

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"inferray/internal/closure"
	"inferray/internal/store"
)

// reachPairs is the reference closure of an edge list, independent of
// the condensation under test: a breadth-first search from every node
// over the raw edges. It returns every ⟨u, v⟩ with a path of length ≥ 1
// as a sorted flat pair list.
func reachPairs(edges []uint64) []uint64 {
	next := make(map[uint64][]uint64)
	for i := 0; i < len(edges); i += 2 {
		next[edges[i]] = append(next[edges[i]], edges[i+1])
	}
	var out []uint64
	for _, u := range distinct(edges) {
		seen := make(map[uint64]bool)
		queue := slices.Clone(next[u])
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if !seen[v] {
				seen[v] = true
				queue = append(queue, next[v]...)
			}
		}
		var reach []uint64
		for v := range seen {
			reach = append(reach, v)
		}
		slices.Sort(reach)
		for _, v := range reach {
			out = append(out, u, v)
		}
	}
	return out
}

// distinct returns the sorted distinct ids of an edge list.
func distinct(edges []uint64) []uint64 {
	return slices.Compact(slices.Sorted(slices.Values(edges)))
}

// checkRelation compares every answer of r with the reference closure
// of the edges it was built from.
func checkRelation(t *testing.T, name string, edges []uint64, r *Relation) {
	t.Helper()
	ref := reachPairs(edges)
	refSet := make(map[[2]uint64]bool)
	for i := 0; i < len(ref); i += 2 {
		refSet[[2]uint64{ref[i], ref[i+1]}] = true
	}

	// Full pair enumeration in ⟨s,o⟩ order must equal the closure.
	var got []uint64
	r.ForEachPair(false, func(s, o uint64) bool {
		got = append(got, s, o)
		return true
	})
	if !slices.Equal(got, ref) {
		t.Errorf("%s: ForEachPair(so) = %v, want %v", name, got, ref)
	}

	// ⟨o,s⟩-order enumeration: the same pairs, sorted by ⟨o,s⟩.
	var gotOS, wantOS [][2]uint64
	r.ForEachPair(true, func(s, o uint64) bool {
		gotOS = append(gotOS, [2]uint64{s, o})
		return true
	})
	for i := 0; i < len(ref); i += 2 {
		wantOS = append(wantOS, [2]uint64{ref[i], ref[i+1]})
	}
	slices.SortFunc(wantOS, func(a, b [2]uint64) int {
		return cmp.Or(cmp.Compare(a[1], b[1]), cmp.Compare(a[0], b[0]))
	})
	if !reflect.DeepEqual(gotOS, wantOS) {
		t.Errorf("%s: ForEachPair(os) = %v, want %v", name, gotOS, wantOS)
	}

	if r.VisiblePairs()*2 != len(ref) {
		t.Errorf("%s: VisiblePairs = %d, want %d", name, r.VisiblePairs(), len(ref)/2)
	}

	// Point lookups across the full id square, plus an id outside it.
	ids := distinct(edges)
	probe := append(slices.Clone(ids), 1<<63+5)
	for _, a := range probe {
		for _, b := range probe {
			want := refSet[[2]uint64{a, b}]
			if got := r.Subsumes(a, b); got != want {
				t.Errorf("%s: Subsumes(%d,%d) = %v, want %v", name, a, b, got, want)
			}
		}
	}

	// Supers/Subs enumerations, ascending and complete.
	for _, a := range probe {
		var supers, want []uint64
		r.Supers(a, func(s uint64) bool { supers = append(supers, s); return true })
		for _, b := range ids {
			if refSet[[2]uint64{a, b}] {
				want = append(want, b)
			}
		}
		if !slices.Equal(supers, want) {
			t.Errorf("%s: Supers(%d) = %v, want %v", name, a, supers, want)
		}
		if got := slices.Sorted(slices.Values(r.AppendSupers(a, nil))); !slices.Equal(got, want) {
			t.Errorf("%s: AppendSupers(%d) = %v, want %v", name, a, got, want)
		}

		var subs []uint64
		r.Subs(a, func(s uint64) bool { subs = append(subs, s); return true })
		want = nil
		for _, b := range ids {
			if refSet[[2]uint64{b, a}] {
				want = append(want, b)
			}
		}
		if !slices.Equal(subs, want) {
			t.Errorf("%s: Subs(%d) = %v, want %v", name, a, subs, want)
		}
		if got := r.HasSubs(a); got != (len(want) > 0) {
			t.Errorf("%s: HasSubs(%d) = %v", name, a, got)
		}
	}

	// Cyclic components: the nodes that reach themselves, grouped by
	// mutual reach, each group sorted, the groups by first member.
	var wantSCCs, gotSCCs [][]uint64
	for _, a := range ids {
		if !refSet[[2]uint64{a, a}] {
			continue
		}
		var mates []uint64
		for _, b := range ids {
			if refSet[[2]uint64{a, b}] && refSet[[2]uint64{b, a}] {
				mates = append(mates, b)
			}
		}
		if mates[0] == a {
			wantSCCs = append(wantSCCs, mates)
		}
	}
	r.ForEachCyclicSCC(func(members []uint64) { gotSCCs = append(gotSCCs, members) })
	slices.SortFunc(gotSCCs, func(a, b []uint64) int { return cmp.Compare(a[0], b[0]) })
	if !reflect.DeepEqual(gotSCCs, wantSCCs) {
		t.Errorf("%s: ForEachCyclicSCC = %v, want %v", name, gotSCCs, wantSCCs)
	}
}

var graphs = map[string][]uint64{
	"chain":     {1, 2, 2, 3, 3, 4, 4, 5},
	"tree":      {10, 1, 11, 1, 12, 10, 13, 10, 14, 11},
	"diamond":   {1, 2, 1, 3, 2, 4, 3, 4, 4, 5},
	"cycle":     {1, 2, 2, 3, 3, 1, 4, 1},
	"self-loop": {1, 1, 2, 1},
	"two-comps": {1, 2, 2, 3, 10, 11},
	"dag-wide":  {1, 5, 2, 5, 3, 5, 4, 5, 5, 6, 5, 7},
	"mutual":    {1, 2, 2, 1, 3, 2, 2, 4},
}

func TestRelationMatchesClosure(t *testing.T) {
	for name, edges := range graphs {
		checkRelation(t, name, edges, newRelation(edges))
	}
}

// TestRelationMatchesReachQuick checks the relation against the
// breadth-first reference on random digraphs with cycles, self-loops,
// duplicate edges and scattered 64-bit ids.
func TestRelationMatchesReachQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = rng.Uint64()&^0xff | uint64(i) // distinct low byte
		}
		var edges []uint64
		for i := rng.Intn(3 * n); i > 0; i-- {
			a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
			edges = append(edges, a, b)
			if rng.Intn(8) == 0 {
				edges = append(edges, a, b)
			}
		}
		checkRelation(t, "random", edges, newRelation(edges))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzCondense decodes an edge list from the fuzzer's bytes — two bytes
// per edge, 32 possible nodes with scattered ids — and checks both users
// of the one condensation build against the breadth-first reference:
// closure.Close must emit each closure pair exactly once, and every
// Relation answer must agree.
func FuzzCondense(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 4})       // chain
	f.Add([]byte{1, 2, 2, 1})             // 2-cycle
	f.Add([]byte{1, 1, 2, 1})             // self-loop
	f.Add([]byte{1, 2, 1, 2, 2, 3, 2, 3}) // parallel edges
	f.Add([]byte{1, 2, 2, 3, 8, 9, 9, 8}) // two components
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		id := func(b byte) uint64 { return uint64(b%32)*0x9E3779B97F4A7C15>>1 + 1 }
		var edges []uint64
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, id(data[i]), id(data[i+1]))
		}
		closed := closure.Close(edges)
		var got [][2]uint64
		for i := 0; i < len(closed); i += 2 {
			got = append(got, [2]uint64{closed[i], closed[i+1]})
		}
		slices.SortFunc(got, func(a, b [2]uint64) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		ref := reachPairs(edges)
		var want [][2]uint64
		for i := 0; i < len(ref); i += 2 {
			want = append(want, [2]uint64{ref[i], ref[i+1]})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Close(%v) = %v, want %v", edges, got, want)
		}
		checkRelation(t, "fuzz", edges, newRelation(edges))
	})
}

func TestRelationDeterministic(t *testing.T) {
	edges := graphs["diamond"]
	a := newRelation(edges)
	b := newRelation(edges)
	if !reflect.DeepEqual(a.Rank, b.Rank) || !reflect.DeepEqual(a.At, b.At) {
		t.Fatal("relation build is not deterministic")
	}
}

func TestRelationEmpty(t *testing.T) {
	r := newRelation(nil)
	if r.Has(1) || r.HasSubs(1) || r.Subsumes(1, 2) {
		t.Fatal("empty relation claims membership")
	}
	if r.VisiblePairs() != 0 || r.Nodes() != 0 {
		t.Fatal("empty relation has pairs")
	}
	r.Supers(1, func(uint64) bool { t.Fatal("unexpected super"); return false })
	r.ForEachPair(false, func(uint64, uint64) bool { t.Fatal("unexpected pair"); return false })
}

func TestViewTypeExpansion(t *testing.T) {
	// Class hierarchy: 100 ⊑ 101 ⊑ 102, 103 isolated. Instances typed at
	// the leaves; the view must surface the expanded rdf:type pairs.
	const typePidx, scPidx, spPidx = 0, 1, 2
	st := store.New(3)
	st.Add(scPidx, 100, 101)
	st.Add(scPidx, 101, 102)
	st.Add(typePidx, 7, 100)
	st.Add(typePidx, 8, 101)
	st.Add(typePidx, 9, 103)
	st.Normalize()

	idx := Build(st.Table(scPidx).Pairs(), nil, typePidx, scPidx, spPidx)
	v := &View{St: st, Idx: idx}

	if !v.Contains(typePidx, 7, 102) || !v.Contains(typePidx, 7, 100) {
		t.Fatal("expansion missing")
	}
	if v.Contains(typePidx, 9, 102) || v.Contains(typePidx, 7, 103) {
		t.Fatal("expansion overreaches")
	}

	var objs []uint64
	v.ScanSubject(typePidx, 7, func(o uint64) bool { objs = append(objs, o); return true })
	if !reflect.DeepEqual(objs, []uint64{100, 101, 102}) {
		t.Fatalf("ScanSubject(type,7) = %v", objs)
	}

	var subs []uint64
	v.ScanObject(typePidx, 102, func(s uint64) bool { subs = append(subs, s); return true })
	if !reflect.DeepEqual(subs, []uint64{7, 8}) {
		t.Fatalf("ScanObject(type,102) = %v", subs)
	}

	var all [][2]uint64
	v.ScanAll(typePidx, false, func(s, o uint64) bool {
		all = append(all, [2]uint64{s, o})
		return true
	})
	want := [][2]uint64{{7, 100}, {7, 101}, {7, 102}, {8, 101}, {8, 102}, {9, 103}}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("ScanAll(type,so) = %v, want %v", all, want)
	}

	var allOS [][2]uint64
	v.ScanAll(typePidx, true, func(s, o uint64) bool {
		allOS = append(allOS, [2]uint64{s, o})
		return true
	})
	wantOS := [][2]uint64{{7, 100}, {7, 101}, {8, 101}, {7, 102}, {8, 102}, {9, 103}}
	if !reflect.DeepEqual(allOS, wantOS) {
		t.Fatalf("ScanAll(type,os) = %v, want %v", allOS, wantOS)
	}

	sts := v.Stats(typePidx)
	if sts.Pairs != 6 || sts.Subjects != 3 || sts.Objects != 4 || !sts.ObjectsExact {
		t.Fatalf("Stats(type) = %+v", sts)
	}
	vSC, vSP, vType := v.VirtualCounts()
	// Visible sc pairs: (100,101),(100,102),(101,102) = 3; stored 2.
	if vSC != 1 || vSP != 0 || vType != 3 {
		t.Fatalf("VirtualCounts = %d,%d,%d", vSC, vSP, vType)
	}

	// Early-abort propagation.
	n := 0
	if v.ScanAll(typePidx, false, func(uint64, uint64) bool { n++; return false }) {
		t.Fatal("abort not propagated")
	}
	if n != 1 {
		t.Fatalf("walked %d past abort", n)
	}
}

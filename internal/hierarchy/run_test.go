package hierarchy

import (
	"math/rand"
	"slices"
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/store"
)

// randomEdges draws a subClassOf-like edge list over the ids 1..nodes in
// one of four shapes: a forest (every edge child → lower-numbered
// parent), a DAG with diamonds, an arbitrary digraph (cycles, self
// loops), and a forest with a few back edges (large cyclic components).
func randomEdges(rng *rand.Rand, nodes int) []uint64 {
	id := func() uint64 { return uint64(1 + rng.Intn(nodes)) }
	var edges []uint64
	switch shape := rng.Intn(4); shape {
	case 0, 3:
		for c := 2; c <= nodes; c++ {
			if rng.Intn(5) > 0 { // the rest stay roots: a forest
				edges = append(edges, uint64(c), uint64(1+rng.Intn(c-1)))
			}
		}
		if shape == 3 {
			for i := rng.Intn(4); i > 0; i-- {
				edges = append(edges, id(), id())
			}
		}
	case 1:
		for i := rng.Intn(3 * nodes); i > 0; i-- {
			if a, b := id(), id(); a > b {
				edges = append(edges, a, b)
			}
		}
	case 2:
		for i := rng.Intn(2 * nodes); i > 0; i-- {
			edges = append(edges, id(), id())
		}
	}
	return edges
}

// randomRun draws a duplicate-free ascending class run as the flat ⟨s,o⟩
// subject run of subject s. Ids above nodes are outside every hierarchy.
func randomRun(rng *rand.Rand, s uint64, nodes int) []uint64 {
	var run []uint64
	for c := 1; c <= nodes+nodes/4+1; c++ {
		if rng.Intn(3) == 0 {
			run = append(run, s, uint64(c))
		}
	}
	return run
}

// TestShadowedMatchesPairwise checks the run-level shadow masks against
// the pairwise definition Shadowed replaced: d is shadowed iff some other
// class c of the run is subsumed by d, and either strictly (d is not
// subsumed by c) or, for Shadowed but not StrictlyShadowed, as the cycle
// mate with the smaller id.
func TestShadowedMatchesPairwise(t *testing.T) {
	for _, mates := range []bool{true, false} {
		rng := rand.New(rand.NewSource(20))
		var sc RunScratch
		shadowedRuns := 0
		for iter := 0; iter < 2000; iter++ {
			nodes := 2 + rng.Intn(24)
			edges := randomEdges(rng, nodes)
			r := newRelation(edges)
			for k := 0; k < 4; k++ {
				run := randomRun(rng, 7, nodes)
				got := r.StrictlyShadowed(run, &sc)
				if mates {
					got = r.Shadowed(run, &sc)
				}
				any := false
				for i := 1; i < len(run); i += 2 {
					d, want := run[i], false
					for j := 1; j < len(run); j += 2 {
						if c := run[j]; c != d && r.Subsumes(c, d) && (!r.Subsumes(d, c) || mates && c < d) {
							want = true
						}
					}
					any = any || want
					if have := got != nil && got[i/2]; have != want {
						t.Fatalf("mates %t, edges %v run %v: class %d shadowed = %t, pairwise says %t", mates, edges, run, d, have, want)
					}
				}
				if !any && got != nil {
					t.Fatalf("mates %t, edges %v run %v: non-nil mask with nothing shadowed", mates, edges, run)
				}
				if any {
					shadowedRuns++
				}
			}
		}
		if shadowedRuns < 1000 {
			t.Fatalf("mates %t: only %d of 8000 runs had a shadowed class; the generator is too sparse to test anything", mates, shadowedRuns)
		}
	}
}

// TestTypeStatsMatchesSupers checks the stamped counts against their
// definition: a subject's visible classes are its run plus every visible
// super, deduplicated, and the table's visible classes the same union
// over every run.
func TestTypeStatsMatchesSupers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 500; iter++ {
		nodes := 2 + rng.Intn(24)
		edges := randomEdges(rng, nodes)
		x := Build(edges, nil, 0, 1, 2)
		tab := &store.Table{}
		visible := 0
		var all []uint64
		for s := uint64(100); s < 100+uint64(rng.Intn(6)); s++ {
			run := randomRun(rng, s, nodes)
			tab.AppendPairs(run)
			var classes []uint64
			for i := 1; i < len(run); i += 2 {
				classes = append(classes, run[i])
				x.Classes.Supers(run[i], func(super uint64) bool {
					classes = append(classes, super)
					return true
				})
			}
			classes = sortDedup(classes)
			visible += len(classes)
			all = append(all, classes...)
		}
		tab.Normalize()
		virtual, objects := x.typeStats(tab, true)
		if want := visible - tab.Size(); virtual != want {
			t.Fatalf("edges %v table %v: virtual = %d, want %d", edges, tab.Pairs(), virtual, want)
		}
		if want := len(sortDedup(all)); objects != want {
			t.Fatalf("edges %v table %v: objects = %d, want %d", edges, tab.Pairs(), objects, want)
		}
	}
}

// yagoTypeTable returns the class hierarchy of datagen.YagoLike(20) and
// a type table over it: every instance typed with its asserted class and
// a handful of random further classes.
func yagoTypeTable(tb testing.TB) (*Index, *store.Table) {
	tb.Helper()
	d := dictionary.New()
	rng := rand.New(rand.NewSource(22))
	var edges, classes []uint64
	tab := &store.Table{}
	for _, tr := range datagen.YagoLike(20).Generate() {
		switch tr.P {
		case rdf.RDFSSubClassOf:
			s, o := d.EncodeResource(tr.S), d.EncodeResource(tr.O)
			edges = append(edges, s, o)
			classes = append(classes, s, o)
		case rdf.RDFType:
			tab.Append(d.EncodeResource(tr.S), d.EncodeResource(tr.O))
		}
	}
	for i, n := 0, tab.Size(); i < n; i++ {
		for k := 0; k < 8; k++ {
			tab.Append(tab.RawPairs()[2*i], classes[rng.Intn(len(classes))])
		}
	}
	tab.Normalize()
	return Build(edges, nil, 0, 1, 2), tab
}

// TestTypeStatsAllocations pins the count to a constant number of
// allocations, however many subjects the table has.
func TestTypeStatsAllocations(t *testing.T) {
	x, tab := yagoTypeTable(t)
	if tab.Stats().Subjects < 1000 {
		t.Fatalf("table has %d subjects; too few to tell per-subject from constant", tab.Stats().Subjects)
	}
	allocs := testing.AllocsPerRun(3, func() {
		x.typeMemo = typeMemo{}
		x.typeStats(tab, true)
	})
	if allocs > 4 {
		t.Errorf("typeStats allocates %.0f objects over %d subjects; want a constant", allocs, tab.Stats().Subjects)
	}
}

func BenchmarkTypeStats(b *testing.B) {
	x, tab := yagoTypeTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.typeMemo = typeMemo{}
		x.typeStats(tab, true)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tab.Size()), "ns/pair")
}

// TestLookupSlots checks the id → local index table against the sorted
// node list it is built from, for ids inside and outside the hierarchy.
func TestLookupSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 200; iter++ {
		nodes := 1 + rng.Intn(200)
		var edges []uint64
		for i := 0; i < nodes; i++ {
			edges = append(edges, dictionary.PropBase-50+uint64(rng.Intn(400)), dictionary.PropBase-50+uint64(rng.Intn(400)))
		}
		r := newRelation(edges)
		for id := dictionary.PropBase - 60; id < dictionary.PropBase+360; id++ {
			want, wantOK := slices.BinarySearch(r.IDs, id)
			got, ok := r.Lookup(id)
			if ok != wantOK || (ok && int(got) != want) {
				t.Fatalf("lookup(%d) = %d, %t; node list says %d, %t", id, got, ok, want, wantOK)
			}
		}
	}
}

package inferray_test

// One testing.B benchmark per table and figure of the paper's
// evaluation, plus the ablation benches DESIGN.md §4 calls out.
// cmd/benchtables prints the full formatted tables; these benches give
// the same measurements in `go test -bench` form at CI-friendly sizes.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inferray"
	"inferray/internal/baseline"
	"inferray/internal/closure"
	"inferray/internal/datagen"
	"inferray/internal/dictionary"
	"inferray/internal/mapreduce"
	"inferray/internal/rdf"
	"inferray/internal/reasoner"
	"inferray/internal/rules"
	"inferray/internal/sorting"
	"inferray/internal/store"
)

// --------------------------------------------------------------- Table 1

// BenchmarkTable1Sorting measures pair-sorting throughput per algorithm
// across the dense/sparse operating ranges of §5.4.
func BenchmarkTable1Sorting(b *testing.B) {
	shapes := []struct {
		name   string
		size   int
		rangeN int
	}{
		{"dense/size1M_range100K", 1_000_000, 100_000},
		{"balanced/size500K_range500K", 500_000, 500_000},
		{"sparse/size100K_range10M", 100_000, 10_000_000},
	}
	algs := []sorting.Algorithm{
		sorting.Counting, sorting.MSDARadix, sorting.LSDRadix128,
		sorting.Mergesort, sorting.Quicksort,
	}
	for _, sh := range shapes {
		master := benchPairs(sh.size, sh.rangeN)
		for _, alg := range algs {
			if alg == sorting.Counting && sh.rangeN > sh.size {
				continue // outside counting's operating range
			}
			b.Run(fmt.Sprintf("%s/%s", sh.name, alg), func(b *testing.B) {
				buf := make([]uint64, len(master))
				b.SetBytes(int64(len(master) * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(buf, master)
					b.StartTimer()
					sorting.SortPairsWith(alg, buf, false)
				}
			})
		}
	}
}

func benchPairs(n, rangeN int) []uint64 {
	rng := rand.New(rand.NewSource(42))
	out := make([]uint64, 2*n)
	base := dictionary.PropBase + 1
	for i := range out {
		out[i] = base + uint64(rng.Intn(rangeN))
	}
	return out
}

// --------------------------------------------------------------- Table 2

// BenchmarkTable2RDFSFlavors measures full materialization on the BSBM
// workload for the three RDFS flavors, Inferray vs the hash-join
// baseline.
func BenchmarkTable2RDFSFlavors(b *testing.B) {
	triples := datagen.BSBM(20_000, 11)
	for _, fragment := range []rules.Fragment{rules.RhoDF, rules.RDFSDefault, rules.RDFSFull} {
		b.Run("inferray/"+fragment.String(), func(b *testing.B) {
			benchInferray(b, triples, fragment)
		})
		b.Run("hashjoin/"+fragment.String(), func(b *testing.B) {
			benchHashJoin(b, triples, fragment)
		})
	}
}

// --------------------------------------------------------------- Table 3

// BenchmarkTable3RDFSPlus measures the most demanding ruleset on the
// LUBM-like workload across sizes.
func BenchmarkTable3RDFSPlus(b *testing.B) {
	for _, size := range []int{5_000, 20_000, 50_000} {
		triples := datagen.LUBM(size, 13)
		b.Run(fmt.Sprintf("inferray/lubm%s", kilo(size)), func(b *testing.B) {
			benchInferray(b, triples, rules.RDFSPlus)
		})
		if size <= 20_000 {
			b.Run(fmt.Sprintf("hashjoin/lubm%s", kilo(size)), func(b *testing.B) {
				benchHashJoin(b, triples, rules.RDFSPlus)
			})
		}
	}
}

// --------------------------------------------------------------- Table 4

// BenchmarkTable4TransitiveClosure measures chain closure: Inferray's
// Nuutila stage vs the semi-naive hash-join engine vs the naive
// iterative strategy.
func BenchmarkTable4TransitiveClosure(b *testing.B) {
	for _, n := range []int{100, 250, 500, 1000} {
		triples := datagen.Chain(n)
		b.Run(fmt.Sprintf("inferray/chain%d", n), func(b *testing.B) {
			benchInferray(b, triples, rules.RDFSDefault)
		})
		// The iterative baselines grow super-linearly (that is the whole
		// point of Table 4); cap them so the suite stays runnable.
		if n > 250 {
			continue
		}
		b.Run(fmt.Sprintf("hashjoin/chain%d", n), func(b *testing.B) {
			benchHashJoin(b, triples, rules.RhoDF)
		})
		b.Run(fmt.Sprintf("naive/chain%d", n), func(b *testing.B) {
			pairs := chainPairs(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				baseline.NaiveTransitiveClosure(pairs)
			}
		})
	}
}

// ------------------------------------------------------------ Figures 7/8

// BenchmarkFigure7ClosureKernels measures the raw closure kernel
// (closure.Close) whose memory behaviour Figure 7 profiles; the
// simulated counters themselves are deterministic (see
// cmd/benchtables -figure 7) so here we time the kernels.
func BenchmarkFigure7ClosureKernels(b *testing.B) {
	for _, n := range []int{500, 1000, 2500} {
		pairs := chainPairs(n)
		b.Run(fmt.Sprintf("nuutila/chain%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				closure.Close(pairs)
			}
		})
	}
}

// BenchmarkFigure8RDFSPlusIteration measures one full RDFS-Plus
// materialization on each real-world-like taxonomy (the Figure 8
// datasets).
func BenchmarkFigure8RDFSPlusIteration(b *testing.B) {
	sets := map[string][]rdf.Triple{
		"wikipedia": datagen.WikipediaLike(2).Generate(),
		"yago":      datagen.YagoLike(2).Generate(),
		"wordnet":   datagen.WordnetLike(2).Generate(),
	}
	for name, triples := range sets {
		b.Run(name, func(b *testing.B) {
			benchInferray(b, triples, rules.RDFSPlus)
		})
	}
}

// -------------------------------------------------------------- Ablations

// BenchmarkAblationSortSelector compares the operating-range selector
// against forcing a single algorithm on dense data (the §5.4 choice).
func BenchmarkAblationSortSelector(b *testing.B) {
	master := benchPairs(500_000, 50_000) // dense: counting's home turf
	run := func(b *testing.B, sortFn func([]uint64)) {
		buf := make([]uint64, len(master))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(buf, master)
			b.StartTimer()
			sortFn(buf)
		}
	}
	b.Run("selector", func(b *testing.B) {
		run(b, func(p []uint64) { sorting.SortPairs(p, false) })
	})
	b.Run("force-radix", func(b *testing.B) {
		run(b, func(p []uint64) { sorting.RadixSortPairsMSDA(p, false) })
	})
	b.Run("force-quicksort", func(b *testing.B) {
		run(b, func(p []uint64) { sorting.QuicksortPairs(p) })
	})
}

// BenchmarkAblationDenseVsSparseNumbering quantifies §5.1: the same
// data sorted under dense numbering vs scattered 64-bit IDs.
func BenchmarkAblationDenseVsSparseNumbering(b *testing.B) {
	n := 500_000
	dense := benchPairs(n, n/4)
	sparse := make([]uint64, 2*n)
	rng := rand.New(rand.NewSource(9))
	for i := range sparse {
		sparse[i] = rng.Uint64()
	}
	for _, c := range []struct {
		name string
		data []uint64
	}{{"dense", dense}, {"sparse", sparse}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			buf := make([]uint64, len(c.data))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(buf, c.data)
				b.StartTimer()
				sorting.SortPairs(buf, false)
			}
		})
	}
}

// BenchmarkAblationNuutilaVsNaive isolates the §4.1 design choice.
func BenchmarkAblationNuutilaVsNaive(b *testing.B) {
	pairs := chainPairs(250)
	b.Run("nuutila", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			closure.Close(pairs)
		}
	})
	b.Run("naive-fixpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.NaiveTransitiveClosure(pairs)
		}
	})
}

// BenchmarkAblationOSCache measures the ⟨o,s⟩ cache: repeated
// object-keyed access with and without cache reuse (§4.2).
func BenchmarkAblationOSCache(b *testing.B) {
	var tab store.Table
	tab.AppendPairs(benchPairs(200_000, 200_000))
	tab.Normalize()
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tab.OS() // built once, then served from cache
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tab.DropOSCache()
			_ = tab.OS()
		}
	})
}

// BenchmarkAblationParallelRules compares parallel vs sequential rule
// execution (§4.3).
func BenchmarkAblationParallelRules(b *testing.B) {
	triples := datagen.LUBM(30_000, 21)
	for _, parallel := range []bool{true, false} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := reasoner.New(reasoner.Options{Fragment: rules.RDFSPlus, Parallel: parallel})
				e.LoadTriples(triples)
				e.Materialize()
			}
		})
	}
}

// --------------------------------------------------------------- helpers

func benchInferray(b *testing.B, triples []rdf.Triple, fragment rules.Fragment) {
	b.ReportAllocs()
	var total int
	for i := 0; i < b.N; i++ {
		e := reasoner.New(reasoner.Options{Fragment: fragment, Parallel: true})
		e.LoadTriples(triples)
		st := e.Materialize()
		total = st.TotalTriples
	}
	b.ReportMetric(float64(total), "triples")
}

func benchHashJoin(b *testing.B, triples []rdf.Triple, fragment rules.Fragment) {
	b.ReportAllocs()
	// Encode once outside the timer (the paper reports inference time).
	e := reasoner.New(reasoner.Options{Fragment: fragment})
	e.LoadTriples(triples)
	e.Main.Normalize()
	facts := make([]baseline.Fact, 0, e.Main.Size())
	e.Main.ForEach(func(pidx int, s, o uint64) bool {
		facts = append(facts, baseline.Fact{s, dictionary.PropID(pidx), o})
		return true
	})
	specs := rules.Specs(fragment, e.V)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := baseline.NewHashJoinEngine(specs)
		for _, f := range facts {
			h.Add(f)
		}
		h.Materialize()
	}
}

func chainPairs(n int) []uint64 {
	pairs := make([]uint64, 0, 2*n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, uint64(i+1), uint64(i+2))
	}
	return pairs
}

func kilo(n int) string { return fmt.Sprintf("%dk", n/1000) }

// BenchmarkPublicAPIEndToEnd exercises the facade the way a user would
// (load N-Triples text, materialize, serialize).
func BenchmarkPublicAPIEndToEnd(b *testing.B) {
	triples := datagen.BSBM(10_000, 3)
	for i := 0; i < b.N; i++ {
		r := inferray.New(inferray.WithFragment(inferray.RDFSDefault))
		r.AddTriples(triples)
		if _, err := r.Materialize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2WebPIE measures the MapReduce reasoner on the Table 2
// workload (the paper's WebPIE column, RDFS only).
func BenchmarkTable2WebPIE(b *testing.B) {
	triples := datagen.BSBM(10_000, 11)
	for _, full := range []bool{false, true} {
		name := "rdfs-default"
		fragment := rules.RDFSDefault
		if full {
			name = "rdfs-full"
			fragment = rules.RDFSFull
		}
		b.Run(name, func(b *testing.B) {
			e := reasoner.New(reasoner.Options{Fragment: fragment})
			e.LoadTriples(triples)
			e.Main.Normalize()
			facts := make([]baseline.Fact, 0, e.Main.Size())
			e.Main.ForEach(func(pidx int, s, o uint64) bool {
				facts = append(facts, baseline.Fact{s, dictionary.PropID(pidx), o})
				return true
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wp := baseline.NewWebPIEEngine(e.V, full, mapreduce.Config{})
				for _, f := range facts {
					wp.Add(f)
				}
				wp.Materialize()
			}
		})
	}
}

// ------------------------------------------------------------ Query engine

// selectBenchStore builds a three-table join workload (the shape
// internal/query's BenchmarkPlannedVsGreedy runs): property p with np pairs whose objects fan into
// [1, m], property q mapping [1, m] onto [1, m], and property r holding
// only nr subjects out of that range — nr controls the join's
// selectivity skew.
func selectBenchStore(np, m, nr int) *store.Store {
	st := store.New(3)
	p := st.Ensure(0)
	for i := 1; i <= np; i++ {
		p.Append(uint64(1_000_000+i), uint64(i%m+1))
	}
	q := st.Ensure(1)
	for i := 1; i <= m; i++ {
		q.Append(uint64(i), uint64((i*7)%m+1))
	}
	r := st.Ensure(2)
	for i := 1; i <= nr; i++ {
		r.Append(uint64(i), uint64(2_000_000+i))
	}
	st.Normalize()
	return st
}

// BenchmarkSelect times the full parse→plan→pipeline path through
// Reasoner.Select on a skewed three-pattern join: the query text lists
// the big table first and the 20-pair table last. The engine-level
// planned-vs-greedy arms on the same shapes live next to the greedy
// reference they compare (internal/query/greedy_test.go,
// BenchmarkPlannedVsGreedy). Results are recorded in EXPERIMENTS.md.
func BenchmarkSelect(b *testing.B) {
	// End-to-end: text in, modifier pipeline out, on the skewed shape.
	b.Run("endtoend-sparql", func(b *testing.B) {
		r := inferray.New(inferray.WithFragment(inferray.RhoDF))
		var triples []inferray.Triple
		add := func(s, p, o string) { triples = append(triples, inferray.Triple{S: s, P: p, O: o}) }
		np, m, nr := 50_000, 5_000, 20
		for i := 1; i <= np; i++ {
			add(fmt.Sprintf("<s%d>", i), "<p>", fmt.Sprintf("<m%d>", i%m+1))
		}
		for i := 1; i <= m; i++ {
			add(fmt.Sprintf("<m%d>", i), "<q>", fmt.Sprintf("<k%d>", (i*7)%m+1))
		}
		for i := 1; i <= nr; i++ {
			add(fmt.Sprintf("<k%d>", i), "<r>", fmt.Sprintf("<w%d>", i))
		}
		r.AddTriples(triples)
		if _, err := r.Materialize(); err != nil {
			b.Fatal(err)
		}
		queryText := `SELECT DISTINCT ?x ?w WHERE {
  ?x <p> ?y .
  ?y <q> ?z .
  ?z <r> ?w .
  FILTER(?x != <s1>)
} ORDER BY ?x LIMIT 50`
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := r.Select(queryText)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) == 0 {
				b.Fatal("no rows")
			}
		}
	})
}

// ---------------------------------------------------- Concurrent serving

// BenchmarkConcurrentServing measures the online-serving path: every
// parallel worker issues the LUBM SELECT below against one shared,
// materialized reasoner. The queries-only variant is the read-scaling
// baseline; in queries+deltas a background writer simultaneously streams
// single-triple deltas, each staged and materialized incrementally, so
// ns/op shows what snapshot-consistent reads cost while the closure is
// being extended under load. Reported metrics: queries/s (and deltas/s
// for the mixed variant).
func BenchmarkConcurrentServing(b *testing.B) {
	base := datagen.LUBM(20_000, 13)
	query := `SELECT ?head ?parent WHERE {
  ?head <http://example.org/lubm/headOf> ?org .
  ?org <http://example.org/lubm/subOrganizationOf> ?parent
}`
	for _, withDeltas := range []bool{false, true} {
		name := "queries-only"
		if withDeltas {
			name = "queries+deltas"
		}
		b.Run(name, func(b *testing.B) {
			r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
			r.AddTriples(base)
			if _, err := r.Materialize(); err != nil {
				b.Fatal(err)
			}

			stop := make(chan struct{})
			var deltas atomic.Int64
			var wg sync.WaitGroup
			if withDeltas {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						s := fmt.Sprintf("<http://example.org/bench/joiner%d>", i)
						if err := r.Add(s, "<http://example.org/lubm/memberOf>", "<http://example.org/lubm/univ0>"); err != nil {
							b.Error(err)
							return
						}
						if _, err := r.Materialize(); err != nil {
							b.Error(err)
							return
						}
						deltas.Add(1)
					}
				}()
			}

			start := time.Now()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					rows, err := r.Select(query)
					if err != nil {
						b.Error(err)
						return
					}
					if len(rows) == 0 {
						b.Error("no rows")
						return
					}
				}
			})
			b.StopTimer()
			elapsed := time.Since(start)
			close(stop)
			wg.Wait()
			if sec := elapsed.Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "queries/s")
				if withDeltas {
					b.ReportMetric(float64(deltas.Load())/sec, "deltas/s")
				}
			}
		})
	}
}

// BenchmarkOrderByTopK measures the ORDER BY buffering strategies over
// a 50k-row result: with LIMIT (and the server's limit= cap, which
// feeds the same bound) the pipeline keeps a top-(OFFSET+LIMIT) heap
// instead of buffering and sorting every solution, so allocated bytes
// stay flat as the result grows. The nolimit variant is the full-sort
// baseline. Results are recorded in EXPERIMENTS.md.
func BenchmarkOrderByTopK(b *testing.B) {
	r := inferray.New(inferray.WithFragment(inferray.RhoDF))
	var triples []inferray.Triple
	for i := 0; i < 50_000; i++ {
		triples = append(triples, inferray.Triple{
			S: fmt.Sprintf("<s%05d>", i),
			P: "<p>",
			O: fmt.Sprintf("<o%05d>", (i*7919)%50_000),
		})
	}
	r.AddTriples(triples)
	if _, err := r.Materialize(); err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name  string
		query string
		rows  int
	}{
		{"limit10", `SELECT ?s ?o WHERE { ?s <p> ?o } ORDER BY ?o LIMIT 10`, 10},
		{"limit10-offset1000", `SELECT ?s ?o WHERE { ?s <p> ?o } ORDER BY ?o LIMIT 10 OFFSET 1000`, 10},
		{"nolimit-fullsort", `SELECT ?s ?o WHERE { ?s <p> ?o } ORDER BY ?o`, 50_000},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				if _, err := r.ExecFunc(c.query, 0, nil, func(map[string]string) bool {
					n++
					return true
				}); err != nil {
					b.Fatal(err)
				}
				if n != c.rows {
					b.Fatalf("%d rows, want %d", n, c.rows)
				}
			}
		})
	}
}

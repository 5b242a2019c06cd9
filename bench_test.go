package inferray_test

// The query and serving benches EXPERIMENTS.md records. The paper's
// tables and figures are measured in one place, cmd/benchtables, and
// whole-pipeline workloads by `go run ./bench`.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inferray"
	"inferray/internal/datagen"
	"inferray/internal/store"
)

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

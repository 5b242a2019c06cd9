package reasoner

import (
	"fmt"
	"strings"
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// The two benchmarks reproduce EXPERIMENTS.md "A single-triple write":
// the per-operation cost of the write path on a bare engine holding the
// closure of datagen.LUBM(250_000, 1), rdfs-plus, encoding on. They use
// only LoadTriples / Materialize / Retract, so the same file runs
// unchanged on an older commit for a before/after pair. CI runs each
// once as a reading; the gate is TestSingleTripleWriteBudget. An insert
// splices its delta into the tables in place (0.07–0.12 ms, 15 KB on a
// 2-vCPU Xeon). A delete runs its rederivation pass from the stored
// pairs that share a term with the doomed set instead of over the whole
// store (0.6–0.8 ms and 29 KB there, from 3.8–4.3 ms and 8.15 MB); what is
// still O(store) in it is the seed's read of the tables' objects and
// the in-place removal of the doomed pairs (ROADMAP items 7(c), 9(a)).

func lubm250k(b *testing.B) (*Engine, []rdf.Triple) {
	b.Helper()
	triples := datagen.LUBM(250_000, 1)
	e := New(Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: true})
	e.LoadTriples(triples)
	e.Materialize()
	return e, triples
}

// BenchmarkSingleTripleInsert: one takesCourse / memberOf triple for a
// new subject, then Materialize.
func BenchmarkSingleTripleInsert(b *testing.B) {
	e, triples := lubm250k(b)
	var objects [2][]string // objects seen with takesCourse, memberOf
	preds := [2]string{"lubm/takesCourse>", "lubm/memberOf>"}
	var full [2]string
	for _, t := range triples {
		for k, p := range preds {
			if strings.HasSuffix(t.P, p) {
				full[k], objects[k] = t.P, append(objects[k], t.O)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % 2
		e.LoadTriples([]rdf.Triple{{
			S: fmt.Sprintf("<http://example.org/bench/new%d>", i),
			P: full[k],
			O: objects[k][i%len(objects[k])],
		}})
		if st := e.Materialize(); st.InputTriples != 1 {
			b.Fatalf("insert %d: %d input triples", i, st.InputTriples)
		}
	}
}

// BenchmarkSingleTripleDelete: Retract of one asserted takesCourse
// triple of the base data (re-asserted off the clock once all are gone).
func BenchmarkSingleTripleDelete(b *testing.B) {
	e, triples := lubm250k(b)
	var victims []rdf.Triple
	for _, t := range triples {
		if strings.HasSuffix(t.P, "lubm/takesCourse>") {
			victims = append(victims, t)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(victims) == 0 {
			b.StopTimer()
			e.LoadTriples(victims)
			e.Materialize()
			b.StartTimer()
		}
		st, err := e.Retract(victims[i%len(victims) : i%len(victims)+1])
		if err != nil || st.Retracted != 1 {
			b.Fatalf("delete %d: %+v, %v", i, st, err)
		}
	}
}

package reasoner

import (
	"fmt"
	"strings"
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// The benchmarks reproduce EXPERIMENTS.md "A single-triple write":
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
// An emailAddress delete is read apart: PRP-IFP reads only the run of
// the deleted address, so an address no other subject holds costs a
// delete like any other (0.66–0.70 ms, 11 KB; 43–45 ms and 22 MB while
// the rule rescanned the whole table). A shared one dooms a sameAs
// link, and the θ step overdeletes and re-closes only the pairs that
// link can reach — its clique, and EQ-REP's copies for the clique's
// terms, 18 pairs (3.2 ms, 93 KB; 33–36 ms and 18.8 MB while
// overdeletion wiped the sameAs table). What is left of it is EQ-REP's
// read of Main for the doomed link (ROADMAP item 8(b)).

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
	retractEach(b, e, victims)
}

// BenchmarkSingleTripleEmailDelete: Retract of one asserted emailAddress
// triple whose address no other subject holds ("unshared"), or of the
// first holder's triple of an address a duplicate record shares
// ("shared"), re-asserted off the clock.
func BenchmarkSingleTripleEmailDelete(b *testing.B) {
	e, triples := lubm250k(b)
	holders := map[string]int{}
	for _, t := range triples {
		if strings.HasSuffix(t.P, "lubm/emailAddress>") {
			holders[t.O]++
		}
	}
	victims := map[bool][]rdf.Triple{}
	seen := map[string]bool{}
	for _, t := range triples {
		if strings.HasSuffix(t.P, "lubm/emailAddress>") && !seen[t.O] {
			seen[t.O] = true
			victims[holders[t.O] > 1] = append(victims[holders[t.O] > 1], t)
		}
	}
	for _, shared := range []bool{false, true} {
		name := "unshared"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) { retractEach(b, e, victims[shared]) })
	}
}

// BenchmarkSingleTripleSubOrganizationDelete: Retract of one asserted
// subOrganizationOf triple (an owl:TransitiveProperty, so a θ table),
// re-asserted off the clock. The θ step overdeletes and re-closes the
// pairs its neighbourhood reaches, looking the endpoints up among the
// table's objects without building its ⟨o,s⟩ list.
func BenchmarkSingleTripleSubOrganizationDelete(b *testing.B) {
	e, triples := lubm250k(b)
	var victims []rdf.Triple
	for _, t := range triples {
		if strings.HasSuffix(t.P, "lubm/subOrganizationOf>") {
			victims = append(victims, t)
		}
	}
	retractEach(b, e, victims)
}

// retractEach retracts victims one per iteration, in order. It
// re-asserts them off the clock once all are gone and, at the end, the
// ones it left retracted, so that a b.Run body called again finds the
// engine as it was.
func retractEach(b *testing.B, e *Engine, victims []rdf.Triple) {
	reassert := func(ts []rdf.Triple) {
		b.StopTimer()
		e.LoadTriples(ts)
		e.Materialize()
		b.StartTimer()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(victims)
		if i > 0 && k == 0 {
			reassert(victims)
		}
		st, err := e.Retract(victims[k : k+1])
		if err != nil || st.Retracted != 1 {
			b.Fatalf("delete %d: %+v, %v", i, st, err)
		}
	}
	reassert(victims[:(b.N-1)%len(victims)+1])
}

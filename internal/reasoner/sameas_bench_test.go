package reasoner

import (
	"fmt"
	"strings"
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// BenchmarkSameAsInsert: one insert that brings an owl:sameAs pair into
// the fixpoint's delta, then Materialize, on the closures of LUBM-250k
// and LUBM-1M. "sameAs" asserts ⟨new owl:sameAs student⟩; "emailAddress"
// gives a new subject a student's address, and the inverse-functional
// emailAddress derives the same pair a round later (PRP-IFP). The θ
// step closes only the pairs among the link's endpoints and their
// sameAs neighbours, the student's clique, not the whole sameAs table
// (LUBM-1M: 4.3–5.7 ms and 67–71 KB per op; 8.9–10.4 ms and 3.2–3.4 MB
// while it re-closed the table). The round that holds the pair
// replicates the student's facts under the new subject (EQ-REP) with
// one read of the whole store, most of what is left. It uses only
// LoadTriples / Materialize, so it runs unchanged on an older commit:
//
//	go test ./internal/reasoner -run '^$' -bench SameAsInsert -benchtime 200x
func BenchmarkSameAsInsert(b *testing.B) {
	for _, size := range []int{250_000, 1_000_000} {
		var e *Engine
		var students []rdf.Triple // ⟨student emailAddress address⟩
		n := 0                    // inserts so far: b.Run may call a body more than once
		for _, kind := range []string{"sameAs", "emailAddress"} {
			b.Run(fmt.Sprintf("LUBM-%dk/%s", size/1000, kind), func(b *testing.B) {
				if e == nil {
					triples := datagen.LUBM(size, 1)
					for _, t := range triples {
						if strings.HasSuffix(t.P, "lubm/emailAddress>") {
							students = append(students, t)
						}
					}
					e = New(Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: true})
					e.LoadTriples(triples)
					e.Materialize()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n++
					s := students[(n*7919)%len(students)]
					t := rdf.Triple{S: fmt.Sprintf("<http://example.org/bench/new%d>", n), P: rdf.OWLSameAs, O: s.S}
					if kind == "emailAddress" {
						t.P, t.O = s.P, s.O
					}
					e.LoadTriples([]rdf.Triple{t})
					if st := e.Materialize(); st.InputTriples == 0 {
						b.Fatalf("insert %d absorbed nothing", n)
					}
				}
			})
		}
	}
}

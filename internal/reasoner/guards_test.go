package reasoner

import (
	"slices"
	"testing"

	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// TestSameAsGuardTrips: guard G3 drops the hierarchy encoding as soon as
// an owl:sameAs endpoint is a class or a property of the index, on every
// way an engine gets there. An inserted sameAs pair that links an
// instance to a class is in the round's delta. A subClassOf edge
// inserted under a term an existing sameAs pair already names brings no
// sameAs pair at all: only the walk over every stored pair after the
// index is rebuilt sees it, so a check of the delta alone would keep the
// encoding. The same edge in a new engine's first batch is seen by the
// walk the adopted batch's round runs after its θ step. Every way, the
// visible closure must equal the oracle's.
func TestSameAsGuardTrips(t *testing.T) {
	tr := func(s, p, o string) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }
	base := []rdf.Triple{
		tr("<Dog>", rdf.RDFSSubClassOf, "<Animal>"),
		tr("<rex>", rdf.RDFType, "<Dog>"),
		tr("<x>", rdf.OWLSameAs, "<y>"),
		tr("<y>", "<likes>", "<rex>"),
	}
	for _, tc := range []struct {
		name     string
		insert   rdf.Triple
		oneBatch bool // base and insert load together into a new engine
	}{
		{"instance linked to a class", tr("<rex>", rdf.OWLSameAs, "<Dog>"), false},
		{"sameAs endpoint becomes a class", tr("<x>", rdf.RDFSSubClassOf, "<C>"), false},
		{"sameAs endpoint is a class in the first batch", tr("<x>", rdf.RDFSSubClassOf, "<C>"), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Fragment: rules.RDFSPlus, HierarchyEncoding: true}
			e := New(opts)
			if tc.oneBatch {
				e.LoadTriples(append(slices.Clone(base), tc.insert))
			} else {
				e.LoadTriples(base)
				e.Materialize()
				if e.HierView() == nil {
					t.Fatal("fixture: the base must keep the encoding")
				}
				e.LoadTriples([]rdf.Triple{tc.insert})
			}
			e.Materialize()
			if e.HierView() != nil {
				t.Errorf("encoding kept after %s %s %s", tc.insert.S, tc.insert.P, tc.insert.O)
			}
			checkAgainstOracle(t, e, opts, tc.name)
		})
	}
}

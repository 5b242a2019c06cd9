package reasoner

import (
	"fmt"
	"slices"
	"testing"

	"inferray/internal/baseline"
	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/rules"
	"inferray/internal/store"
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

// TestGuardTrips drives the bypass guards from outside, in every
// fragment, on a small class and property hierarchy with instances: one
// fixture triple per side rules.Guards derives and per encoded term
// (rdf:type, rdfs:subClassOf, rdfs:subPropertyOf at that side, G2), one
// subclass per marker (G1), a sameAs pair between an individual and a
// class (G3, the sameAs fragments only), and encoded terms at sides the
// derivation leaves unguarded. Whether the fixture arrives with the base
// or after it, the encoding must drop exactly when the derived guards,
// read on the oracle's closure, say so — always for G1 and G2, for G3
// in the sameAs fragments — and the closure with the encoding on and off
// must equal the hash-join oracle's. An unguarded fixture may trip a
// guard through what it entails (RDFS4 types every object, rdf:type
// too), but each must keep the encoding in some fragment.
func TestGuardTrips(t *testing.T) {
	tr := func(s, p, o string) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }
	base := []rdf.Triple{
		tr("<Dog>", rdf.RDFSSubClassOf, "<Animal>"),
		tr("<Animal>", rdf.RDFSSubClassOf, "<Being>"),
		tr("<rex>", rdf.RDFType, "<Dog>"),
		tr("<hasPet>", rdf.RDFSSubPropertyOf, "<knows>"),
		tr("<knows>", rdf.RDFSSubPropertyOf, "<relatedTo>"),
		tr("<knows>", rdf.RDFSDomain, "<Person>"),
		tr("<alice>", "<hasPet>", "<rex>"),
	}
	type fixture struct {
		name   string
		triple rdf.Triple
		trips  func(rules.Fragment) bool // nil: as the closure says
	}
	always := func(rules.Fragment) bool { return true }
	var fixtures []fixture
	fresh := New(Options{})
	name := func(id uint64) string { return fresh.Dict.MustDecode(id) }
	v := fresh.V
	g := rules.Guards(v)
	for _, side := range g.Sides {
		p := name(dictionary.PropID(side.Pidx))
		other := "<knows>"
		if side.Pidx == v.Domain || side.Pidx == v.Range || side.Pidx == v.Type {
			other = "<Dog>"
		}
		for _, term := range []string{rdf.RDFType, rdf.RDFSSubClassOf, rdf.RDFSSubPropertyOf} {
			f := fixture{fmt.Sprintf("G2 %s subject", p), tr(term, p, other), always}
			if side.Object {
				f = fixture{fmt.Sprintf("G2 %s object", p), tr(other, p, term), always}
			}
			fixtures = append(fixtures, f)
		}
	}
	for _, m := range g.Markers {
		fixtures = append(fixtures, fixture{"G1 " + name(m), tr("<Sub>", rdf.RDFSSubClassOf, name(m)), always})
	}
	fixtures = append(fixtures,
		fixture{"G3", tr("<rex>", rdf.OWLSameAs, "<Dog>"), rules.Fragment.UsesSameAs},
		fixture{"unguarded subPropertyOf object", tr("<likes>", rdf.RDFSSubPropertyOf, rdf.RDFType), nil},
		fixture{"unguarded range object", tr("<knows>", rdf.RDFSRange, rdf.RDFSSubClassOf), nil},
		fixture{"unguarded type object", tr("<rex>", rdf.RDFType, rdf.RDFSSubPropertyOf), nil},
		fixture{"unguarded domain object", tr("<hasPet>", rdf.RDFSDomain, rdf.RDFType), nil},
	)
	kept := map[string]bool{}
	if len(fixtures) != 3*10+11+5 {
		t.Fatalf("%d fixtures for %d sides and %d markers", len(fixtures), len(g.Sides), len(g.Markers))
	}
	for _, f := range []rules.Fragment{rules.RhoDF, rules.RDFSDefault, rules.RDFSFull, rules.RDFSPlus, rules.RDFSPlusFull} {
		for _, fx := range fixtures {
			for _, oneBatch := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s %s %s %s/one batch=%t", f, fx.name, fx.triple.S, fx.triple.P, fx.triple.O, oneBatch)
				for _, encoding := range []bool{true, false} {
					opts := Options{Fragment: f, HierarchyEncoding: encoding}
					e := New(opts)
					if oneBatch {
						e.LoadTriples(append(slices.Clone(base), fx.triple))
					} else {
						e.LoadTriples(base)
						e.Materialize()
						if encoding && e.HierView() == nil {
							t.Fatalf("%s: the base must keep the encoding", label)
						}
						e.LoadTriples([]rdf.Triple{fx.triple})
					}
					e.Materialize()
					checkAgainstOracle(t, e, opts, fmt.Sprintf("%s encoding=%t", label, encoding))
					if !encoding {
						continue
					}
					trips := guardsTripOn(e, g, f, oracleFacts(e, f, assertedTriples(e)))
					if fx.trips != nil && trips != fx.trips(f) {
						t.Errorf("%s: the closure trips the guards %t, the fixture's kind %t", label, trips, fx.trips(f))
					}
					if encoded := e.HierView() != nil; encoded == trips {
						t.Errorf("%s: encoding kept %t, the guards on the closure trip %t", label, encoded, trips)
					}
					kept[fx.name] = kept[fx.name] || !trips
				}
			}
		}
	}
	for _, fx := range fixtures {
		if fx.trips == nil && !kept[fx.name] {
			t.Errorf("%s: no fragment keeps the encoding; the fixture tests no unguarded side", fx.name)
		}
	}
}

// guardsTripOn reports whether the guards' vocabulary g, read on a
// closure as full materialization holds it, says the encoding must drop:
// a marker with a sub (a self-loop counts: it is a cycle), an encoded
// predicate at a guarded side, or, in the sameAs fragments, a sameAs
// endpoint that is a subClassOf or subPropertyOf endpoint.
func guardsTripOn(e *Engine, g rules.Guarded, f rules.Fragment, closure map[baseline.Fact]struct{}) bool {
	pid, v := dictionary.PropID, e.V
	encoded := []uint64{pid(v.Type), pid(v.SubClassOf), pid(v.SubPropertyOf)}
	node := map[uint64]bool{}
	for fact := range closure {
		if fact[1] == pid(v.SubClassOf) || fact[1] == pid(v.SubPropertyOf) {
			node[fact[0]], node[fact[2]] = true, true
		}
	}
	for fact := range closure {
		s, pidx, o := fact[0], dictionary.PropIndex(fact[1]), fact[2]
		switch {
		case pidx == v.SubClassOf && slices.Contains(g.Markers, o),
			slices.Contains(g.Sides, rules.Side{Pidx: pidx}) && slices.Contains(encoded, s),
			slices.Contains(g.Sides, rules.Side{Pidx: pidx, Object: true}) && slices.Contains(encoded, o),
			f.UsesSameAs() && pidx == v.SameAs && (node[s] || node[o]):
			return true
		}
	}
	return false
}

// TestSameAsStoredOutsideARoundTrips: G3 reads the stored sameAs table
// whenever it has a new version, so a pair naming a class that reaches
// Main without a merge round's delta — store.MergeRound on Main directly
// — trips it on the next round, one that brings no sameAs pair.
func TestSameAsStoredOutsideARoundTrips(t *testing.T) {
	tr := func(s, p, o string) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }
	e := New(Options{Fragment: rules.RDFSPlus, HierarchyEncoding: true})
	e.LoadTriples([]rdf.Triple{
		tr("<Dog>", rdf.RDFSSubClassOf, "<Animal>"),
		tr("<rex>", rdf.RDFType, "<Dog>"),
	})
	e.Materialize()
	if e.HierView() == nil {
		t.Fatal("fixture: the base must keep the encoding")
	}
	rex, _ := e.Dict.Lookup("<rex>")
	dog, _ := e.Dict.Lookup("<Dog>")
	out := store.New(e.Main.NumSlots())
	out.Ensure(e.V.SameAs).AppendPairs([]uint64{rex, dog, dog, rex})
	store.MergeRound(e.Main, false, false, out)
	e.LoadTriples([]rdf.Triple{tr("<alice>", "<likes>", "<bob>")})
	e.Materialize()
	if e.HierView() != nil {
		t.Error("a sameAs pair naming a class, stored outside a merge round, kept the encoding")
	}
}

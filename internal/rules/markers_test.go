package rules_test

import (
	"fmt"
	"slices"
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/reasoner"
	"inferray/internal/rules"
	"inferray/internal/store"
)

// TestMarkerLookupsMatchObjectRun: the marker lookups, which never build
// an ⟨o,s⟩ list, return exactly the object run of a freshly built one —
// all subjects for the class markers (PairsWithObjectIn on a term set
// holding the marker, as the marked rules look up theirs), the property
// subjects for the four property markers — on the LUBM and YagoLike
// closures with markers sprinkled over properties, classes and plain
// resources, and for a term promoted from resource to property after its
// typing was stored.
func TestMarkerLookupsMatchObjectRun(t *testing.T) {
	propMarkers := []string{rdf.OWLFunctionalProperty, rdf.OWLInverseFunctionalProperty,
		rdf.OWLSymmetricProperty, rdf.OWLTransitiveProperty}
	classMarkers := []string{rdf.RDFSClass, rdf.OWLClass, rdf.RDFProperty, rdf.RDFSDatatype,
		rdf.RDFSContainerMembershipProperty, rdf.OWLDatatypeProperty, rdf.OWLObjectProperty}
	markers := slices.Concat(propMarkers, classMarkers)
	// sprinkle types every 7th distinct predicate, subject and object with
	// a marker, round robin.
	sprinkle := func(triples []rdf.Triple) []rdf.Triple {
		out := slices.Clone(triples)
		seen, n := map[string]bool{}, 0
		for _, tr := range triples {
			for _, term := range []string{tr.P, tr.S, tr.O} {
				if seen[term] || term[0] != '<' {
					continue
				}
				seen[term] = true
				if n++; n%7 == 0 {
					out = append(out, rdf.Triple{S: term, P: rdf.RDFType, O: markers[n/7%len(markers)]})
				}
			}
		}
		return out
	}
	yago := datagen.YagoLike(2).Generate()
	for _, tc := range []struct {
		name    string
		batches [][]rdf.Triple
	}{
		{"lubm", [][]rdf.Triple{sprinkle(datagen.LUBM(3000, 1))}},
		{"yago", [][]rdf.Triple{sprinkle(yago)}},
		// <alias> is typed while it is only ever an object — a resource —
		// and then used as a predicate, which moves it and its typing to
		// the property side.
		{"promoted", [][]rdf.Triple{
			{
				{S: "<doc>", P: "<mentions>", O: "<alias>"},
				{S: "<alias>", P: rdf.RDFType, O: rdf.OWLSymmetricProperty},
				{S: "<alias>", P: rdf.RDFType, O: rdf.OWLFunctionalProperty},
				{S: "<stray>", P: rdf.RDFType, O: rdf.OWLFunctionalProperty},
			},
			{{S: "<x>", P: "<alias>", O: "<y>"}},
		}},
	} {
		for _, encoded := range []bool{false, true} {
			label := fmt.Sprintf("%s encoded=%t", tc.name, encoded)
			e := reasoner.New(reasoner.Options{Fragment: rules.RDFSPlusFull, HierarchyEncoding: encoded})
			for _, b := range tc.batches {
				e.LoadTriples(b)
				e.Materialize()
			}
			tt := e.Main.Table(e.V.Type)
			tt.OS() // the lookups' cached path
			copyOf := func() *store.Table {
				var c store.Table
				c.AppendPairs(tt.Pairs())
				c.Normalize()
				return &c
			}
			cold := copyOf() // never probed by object: the uncached path
			fresh := copyOf()
			os := fresh.OS()
			objectRun := func(marker uint64, propsOnly bool) []uint64 {
				var out []uint64
				lo, hi := store.KeyRun(os, marker)
				for i := lo; i < hi; i++ {
					if s := os[2*i+1]; !propsOnly || dictionary.IsProperty(s) {
						out = append(out, s)
					}
				}
				return out
			}
			var set store.TermSet
			markerSubjects := func(tab *store.Table, marker uint64) []uint64 {
				set.Reset(e.Dict.IDRange())
				set.Add(marker)
				var subs []uint64
				for p, i := tab.PairsWithObjectIn(&set, nil), 0; i < len(p); i += 2 {
					subs = append(subs, p[i])
				}
				return subs
			}
			found := 0
			for _, tab := range []*store.Table{cold, tt} {
				cached := tab == tt
				for _, m := range markers {
					id, ok := e.Dict.Lookup(m)
					if !ok {
						t.Fatalf("%s: marker %s not in the dictionary", label, m)
					}
					want := objectRun(id, false)
					if got := markerSubjects(tab, id); !slices.Equal(got, want) {
						t.Errorf("%s cached=%t: subjects typed %s: %v, ObjectRun %v", label, cached, m, got, want)
					}
					var got []uint64
					for _, pidx := range rules.MarkedProperties(tab, id) {
						got = append(got, dictionary.PropID(pidx))
					}
					want = objectRun(id, true)
					if !slices.Equal(got, want) {
						t.Errorf("%s cached=%t: properties typed %s: %v, ObjectRun %v", label, cached, m, got, want)
					}
					found += len(want)
				}
			}
			if found == 0 {
				t.Errorf("%s: no property carries a marker; the check checked nothing", label)
			}
			if _, ok := cold.CachedOS(); ok {
				t.Errorf("%s: a marker lookup built an ⟨o,s⟩ list", label)
			}
		}
	}
	if rules.MarkedProperties(nil, 1) != nil {
		t.Error("the property lookup must accept a missing type table")
	}
	// The marked rules, which look their marker up in the delta's type
	// table, must accept a delta without one.
	d := dictionary.NewWithVocabulary(rdf.VocabularyProperties, rdf.VocabularyResources)
	v := rules.ResolveVocab(d)
	empty, out := store.New(d.NumProperties()), store.New(d.NumProperties())
	var terms store.TermSet
	for _, f := range []rules.Fragment{rules.RDFSFull, rules.RDFSPlusFull} {
		for _, r := range rules.Rules(f, v) {
			r.Apply(&rules.Context{Main: empty, Delta: empty, Out: out, V: v,
				Terms: func() *store.TermSet { terms.Reset(d.IDRange()); return &terms }})
		}
	}
	if out.Size() != 0 {
		t.Errorf("the rules emitted %d pairs from an empty store", out.Size())
	}
}

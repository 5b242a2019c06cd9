package reasoner

import (
	"fmt"
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/metrics"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// TestFirstMaterializationSplices: a table changes one way whoever
// changes it. A round of a first materialization that adds a few pairs
// to a long table splices them in place rather than rebuild, and the
// cache it patches still matches a rebuild. The input is built by hand:
// the generators' first materializations end in bulk rounds, because the
// θ step closes each table in the round that touched it.
func TestFirstMaterializationSplices(t *testing.T) {
	m := NewMetrics(metrics.NewRegistry())
	e := New(Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: true, Metrics: m})
	// <long> holds 256 pairs with distinct objects and is inverse
	// functional: PRP-IFP reads it by object, building its ⟨o,s⟩ cache,
	// and links nothing. <knows> is symmetric and below <long>, so round
	// 1 copies ⟨a knows b⟩ into <long> and round 2 copies ⟨b knows a⟩.
	var in []rdf.Triple
	for i := range 256 {
		in = append(in, rdf.Triple{S: fmt.Sprintf("<s%d>", i), P: "<long>", O: fmt.Sprintf("<o%d>", i)})
	}
	in = append(in,
		rdf.Triple{S: "<long>", P: rdf.RDFType, O: rdf.OWLInverseFunctionalProperty},
		rdf.Triple{S: "<knows>", P: rdf.RDFType, O: rdf.OWLSymmetricProperty},
		rdf.Triple{S: "<knows>", P: rdf.RDFSSubPropertyOf, O: "<long>"},
		rdf.Triple{S: "<a>", P: "<knows>", O: "<b>"},
	)
	e.LoadTriples(in)
	e.Materialize()
	if n := m.Store.Merges.With("splice").Value(); n == 0 {
		t.Errorf("first materialization: %d spliced merges, want > 0 (rebuilds %d)",
			n, m.Store.Merges.With("rebuild").Value())
	}
	if n := m.Store.OSCache.With("patched").Value(); n == 0 {
		t.Errorf("first materialization: %d patched ⟨o,s⟩ caches, want > 0", n)
	}
	if err := e.CheckCarried(); err != nil {
		t.Error(err)
	}
}

// TestChainBuildsNoOSCache: an ⟨o,s⟩ cache is built by the first probe
// by object, and nothing in a subClassOf chain's closure probes by
// object — so the paper's θ stage runs without one.
func TestChainBuildsNoOSCache(t *testing.T) {
	m := NewMetrics(metrics.NewRegistry())
	e := New(Options{Fragment: rules.RDFSDefault, Parallel: true, Metrics: m})
	e.LoadTriples(datagen.Chain(200))
	st := e.Materialize()
	if want := datagen.ChainClosureSize(201); st.TotalTriples != want {
		t.Fatalf("chain closure holds %d triples, want %d", st.TotalTriples, want)
	}
	if n := m.Store.OSCache.With("built").Value(); n != 0 {
		t.Errorf("chain closure built %d ⟨o,s⟩ caches, want 0", n)
	}
}

// TestFirstMaterializationDropsNoOSList: a lookup of a few terms by
// object builds no ⟨o,s⟩ list, so none is built only to be dropped. A
// first materialization of LUBM under RDFS-Plus with the encoding on
// builds two, for the probes that repeat — PRP-IFP's join on
// emailAddress and EQ-REP's partners on owl:sameAs — and drops none:
// neither the θ step's neighbourhood of the new sameAs links nor guard
// G2's look at the inverseOf and sameAs objects builds one.
func TestFirstMaterializationDropsNoOSList(t *testing.T) {
	m := NewMetrics(metrics.NewRegistry())
	e := New(Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: true, Metrics: m})
	e.LoadTriples(datagen.LUBM(50_000, 1))
	e.Materialize()
	built, dropped := m.Store.OSCache.With("built").Value(), m.Store.OSCache.With("dropped").Value()
	if built != 2 || dropped != 0 {
		t.Errorf("first materialization: %d ⟨o,s⟩ lists built and %d dropped, want 2 and 0", built, dropped)
	}
}

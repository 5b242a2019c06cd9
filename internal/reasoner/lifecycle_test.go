package reasoner

import (
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/metrics"
	"inferray/internal/rules"
)

// TestFirstMaterializationSplices: a table changes one way whoever
// changes it. The late rounds of a first materialization add a few
// pairs to long tables, so they splice in place rather than rebuild,
// and the caches they patch still match a rebuild.
func TestFirstMaterializationSplices(t *testing.T) {
	m := NewMetrics(metrics.NewRegistry())
	e := New(Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: true, Metrics: m})
	e.LoadTriples(datagen.LUBM(50_000, 1))
	e.Materialize()
	if n := m.Store.Merges.With("splice").Value(); n == 0 {
		t.Errorf("first materialization of LUBM-50k: %d spliced merges, want > 0 (rebuilds %d)",
			n, m.Store.Merges.With("rebuild").Value())
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

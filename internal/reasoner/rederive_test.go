package reasoner

import (
	"slices"
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/rules"
	"inferray/internal/store"
)

// keptTriples decodes a store's pairs to sorted "s p o" strings.
func keptTriples(e *Engine, st *store.Store) []string {
	var out []string
	st.ForEach(func(pidx int, s, o uint64) bool {
		out = append(out, e.Dict.MustDecode(s)+" "+e.Dict.MustDecode(dictionary.PropID(pidx))+" "+e.Dict.MustDecode(o))
		return true
	})
	slices.Sort(out)
	return out
}

// TestSeededRederivationMatchesWholeStore is the differential check of
// retraction's rederivation pass. At every delete of the suites it runs,
// on the state the pass ran against, a pass of every rule that writes
// into an overdeleted table over the whole store — the delta aliasing
// Main, first-pass semantics — must keep exactly the pairs the pass
// seeded with the doomed set's neighbourhood (rederiveSeed) kept. The
// suites: TestRetractEquivalenceInterleaved (random ontologies over the
// five fragments with the encoding on and off, and a LUBM-2500 base),
// TestRederiveKeepsWhatCanBeNew's fixtures (an unshadowed type pair, a
// second support, a sameAs and a transitive θ edge, a schema edge) and
// TestRederiveObjectOnlyHead.
func TestSeededRederivationMatchesWholeStore(t *testing.T) {
	var cur *testing.T
	passes := 0
	testHookRederive = func(e *Engine, over, doomed, kept *store.Store) {
		passes++
		var st RetractStats
		writers := e.triggered(over, (*rules.Rule).Writes)
		whole := e.possiblyNew(e.runRules(writers, e.Main), doomed, &st)
		if got, want := keptTriples(e, kept), keptTriples(e, whole); !slices.Equal(got, want) {
			cur.Errorf("rederivation pass %d: the seeded pass kept %q, the whole-store pass %q", passes, got, want)
		}
	}
	defer func() { testHookRederive = nil }()
	for _, suite := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"interleaved", TestRetractEquivalenceInterleaved},
		{"fixtures", TestRederiveKeepsWhatCanBeNew},
		{"object-only head", TestRederiveObjectOnlyHead},
	} {
		t.Run(suite.name, func(t *testing.T) {
			cur = t
			suite.run(t)
		})
	}
	t.Logf("%d rederivation passes compared", passes)
	if passes == 0 {
		t.Fatal("no retraction reached the rederivation pass")
	}
}

// TestRederiveObjectOnlyHead retracts under the one head whose subject
// no body pattern names: SCM-CLS's ⟨owl:Nothing subClassOf x⟩, derived
// from ⟨x type owl:Class⟩. Deleting a subClassOf edge into X dooms the
// θ pairs among its endpoints and their neighbours in the subClassOf
// table (a θ table), ⟨owl:Nothing subClassOf X⟩ among them, while every
// other pair with X as its subject is asserted and survives: X is only
// ever a doomed object. The rederivation seed must
// hold the pairs whose subject is a doomed object for the pass to
// re-derive it from ⟨X type owl:Class⟩.
func TestRederiveObjectOnlyHead(t *testing.T) {
	const x = "<http://example.org/X>"
	nothingX := rdf.Triple{S: rdf.OWLNothing, P: rdf.RDFSSubClassOf, O: x}
	edge := rdf.Triple{S: "<http://example.org/A>", P: rdf.RDFSSubClassOf, O: x}
	for _, encoded := range []bool{false, true} {
		opts := Options{Fragment: rules.RDFSPlusFull, Parallel: true, HierarchyEncoding: encoded}
		e := New(opts)
		e.LoadTriples([]rdf.Triple{
			{S: x, P: rdf.RDFType, O: rdf.OWLClass},
			{S: x, P: rdf.RDFSSubClassOf, O: x},
			{S: x, P: rdf.RDFSSubClassOf, O: rdf.OWLThing},
			{S: x, P: rdf.OWLEquivalentClass, O: x},
			edge,
		})
		e.Materialize()
		if !e.Contains(nothingX) {
			t.Fatalf("encoding=%v: the closure lacks %v before the retraction", encoded, nothingX)
		}
		if st, err := e.Retract([]rdf.Triple{edge}); err != nil || st.Retracted != 1 {
			t.Fatalf("encoding=%v: Retract: %+v, %v", encoded, st, err)
		}
		if !e.Contains(nothingX) {
			t.Errorf("encoding=%v: %v was lost: ⟨X type owl:Class⟩ still derives it", encoded, nothingX)
		}
		checkAgainstOracle(t, e, opts, "object-only head")
	}
}

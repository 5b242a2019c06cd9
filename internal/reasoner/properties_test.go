package reasoner

import (
	"math/rand"
	"testing"
	"testing/quick"

	"inferray/internal/baseline"
	"inferray/internal/datagen"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// TestClosureContainsInput: materialization never loses an input triple.
func TestClosureContainsInput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		triples := datagen.RandomOntology(rng, datagen.RandomConfig{
			Classes: 5, Props: 4, Instances: 6, Schema: 12, Data: 20, Plus: true,
		})
		e := New(Options{Fragment: rules.RDFSPlus})
		e.LoadTriples(triples)
		e.Materialize()
		for _, tr := range triples {
			if !e.Contains(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMonotonicity: adding triples never shrinks the closure.
func TestMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := datagen.RandomConfig{
			Classes: 5, Props: 4, Instances: 6, Schema: 10, Data: 15, Plus: false,
		}
		base := datagen.RandomOntology(rng, cfg)
		extra := datagen.RandomOntology(rng, cfg)

		small := New(Options{Fragment: rules.RDFSDefault})
		small.LoadTriples(base)
		small.Materialize()

		big := New(Options{Fragment: rules.RDFSDefault})
		big.LoadTriples(append(append([]rdf.Triple{}, base...), extra...))
		big.Materialize()

		ok := true
		small.Triples(func(tr rdf.Triple) bool {
			if !big.Contains(tr) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalEqualsBatch: loading in two batches with two
// materializations equals one batch with one materialization.
func TestIncrementalEqualsBatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := datagen.RandomConfig{
			Classes: 4, Props: 3, Instances: 5, Schema: 10, Data: 15, Plus: false,
		}
		a := datagen.RandomOntology(rng, cfg)
		b := datagen.RandomOntology(rng, cfg)

		inc := New(Options{Fragment: rules.RDFSDefault})
		inc.LoadTriples(a)
		inc.Materialize()
		inc.LoadTriples(b)
		inc.Materialize()

		batch := New(Options{Fragment: rules.RDFSDefault})
		batch.LoadTriples(append(append([]rdf.Triple{}, a...), b...))
		batch.Materialize()

		if inc.Size() != batch.Size() {
			return false
		}
		ok := true
		batch.Triples(func(tr rdf.Triple) bool {
			if !inc.Contains(tr) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestStatsInvariants checks the arithmetic of the reported statistics.
func TestStatsInvariants(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSPlus, Parallel: true})
	e.LoadTriples(datagen.LUBM(3000, 5))
	st := e.Materialize()
	if st.TotalTriples != st.InputTriples+st.InferredTriples {
		t.Errorf("total %d != input %d + inferred %d",
			st.TotalTriples, st.InputTriples, st.InferredTriples)
	}
	if st.TotalTriples != e.Size() {
		t.Errorf("stats total %d != store size %d", st.TotalTriples, e.Size())
	}
	if st.Iterations < 1 {
		t.Error("at least one iteration must run")
	}
	if st.TotalTime <= 0 {
		t.Error("elapsed time must be positive")
	}
}

// TestLiteralsFlowThroughRules: literals in object position must survive
// encoding, inference (range typing), and decoding.
func TestLiteralsFlowThroughRules(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSDefault})
	e.LoadTriples([]rdf.Triple{
		{S: "<p>", P: rdf.RDFSRange, O: "<Text>"},
		{S: "<x>", P: "<p>", O: `"hello \"world\""@en`},
	})
	e.Materialize()
	if !e.Contains(rdf.Triple{S: `"hello \"world\""@en`, P: rdf.RDFType, O: "<Text>"}) {
		t.Fatal("PRP-RNG must type the literal object")
	}
}

// TestCyclicSchema: subClassOf cycles must produce symmetric closures
// and equivalences without divergence.
func TestCyclicSchema(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSPlus})
	e.LoadTriples([]rdf.Triple{
		{S: "<A>", P: rdf.RDFSSubClassOf, O: "<B>"},
		{S: "<B>", P: rdf.RDFSSubClassOf, O: "<C>"},
		{S: "<C>", P: rdf.RDFSSubClassOf, O: "<A>"},
		{S: "<x>", P: rdf.RDFType, O: "<A>"},
	})
	st := e.Materialize()
	for _, c := range []string{"<A>", "<B>", "<C>"} {
		if !e.Contains(rdf.Triple{S: "<x>", P: rdf.RDFType, O: c}) {
			t.Errorf("x must be typed %s through the cycle", c)
		}
		if !e.Contains(rdf.Triple{S: c, P: rdf.RDFSSubClassOf, O: c}) {
			t.Errorf("%s must subclass itself in a cycle", c)
		}
	}
	if !e.Contains(rdf.Triple{S: "<A>", P: rdf.OWLEquivalentClass, O: "<C>"}) {
		t.Error("cycle members must be equivalent classes (SCM-EQC2)")
	}
	if st.Iterations > 6 {
		t.Errorf("cycle took %d iterations; fixpoint not converging briskly", st.Iterations)
	}
}

// TestSameAsEquivalenceClass: a chain of sameAs links must close into a
// full equivalence class with facts replicated to every member.
func TestSameAsEquivalenceClass(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSPlus})
	e.LoadTriples([]rdf.Triple{
		{S: "<a>", P: rdf.OWLSameAs, O: "<b>"},
		{S: "<b>", P: rdf.OWLSameAs, O: "<c>"},
		{S: "<c>", P: rdf.OWLSameAs, O: "<d>"},
		{S: "<a>", P: "<likes>", O: "<pizza>"},
	})
	e.Materialize()
	for _, m := range []string{"<a>", "<b>", "<c>", "<d>"} {
		if !e.Contains(rdf.Triple{S: m, P: "<likes>", O: "<pizza>"}) {
			t.Errorf("%s must like pizza via EQ-REP-S", m)
		}
		if !e.Contains(rdf.Triple{S: "<d>", P: rdf.OWLSameAs, O: m}) {
			t.Errorf("d sameAs %s must hold (symmetric+transitive)", m)
		}
	}
}

// TestMaxIterationsBounds: the safety valve stops a run early, and a
// round counts only when it ran.
func TestMaxIterationsBounds(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSDefault, MaxIterations: 1})
	e.LoadTriples([]rdf.Triple{
		{S: "<p>", P: rdf.RDFSDomain, O: "<C>"},
		{S: "<C>", P: rdf.RDFSSubClassOf, O: "<D>"},
		{S: "<x>", P: "<p>", O: "<y>"},
	})
	st := e.Materialize()
	if st.Iterations != 1 || len(st.Rounds) != 1 {
		t.Fatalf("MaxIterations=1 reports %d iterations, %d rounds", st.Iterations, len(st.Rounds))
	}
	if e.Contains(rdf.Triple{S: "<x>", P: rdf.RDFType, O: "<D>"}) {
		t.Fatal("the second round's derivation is present: the cap did not stop the run")
	}
}

// TestEmptyInput: materializing nothing is a no-op, not a crash.
func TestEmptyInput(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSPlus, Parallel: true})
	st := e.Materialize()
	if st.TotalTriples != 0 || st.InferredTriples != 0 {
		t.Fatalf("empty input produced %+v", st)
	}
}

// TestPropertyPromotionViaSameAs: the loader must put both sides of a
// property/term sameAs link on the property side so EQ-REP-P can fire.
func TestPropertyPromotionViaSameAs(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSPlus})
	e.LoadTriples([]rdf.Triple{
		{S: "<alias>", P: rdf.OWLSameAs, O: "<real>"},
		{S: "<x>", P: "<real>", O: "<y>"},
	})
	e.Materialize()
	if !e.Contains(rdf.Triple{S: "<x>", P: "<alias>", O: "<y>"}) {
		t.Fatal("EQ-REP-P failed: <alias> was not promoted to a property")
	}
}

// TestCrossEngineFullFragmentAxioms: the RDFS-full axiomatic rules agree
// with the generic evaluator on a targeted input.
func TestCrossEngineFullFragmentAxioms(t *testing.T) {
	triples := []rdf.Triple{
		{S: "<C>", P: rdf.RDFType, O: rdf.RDFSClass},
		{S: "<p>", P: rdf.RDFType, O: rdf.RDFProperty},
		{S: "<m>", P: rdf.RDFType, O: rdf.RDFSContainerMembershipProperty},
		{S: "<d>", P: rdf.RDFType, O: rdf.RDFSDatatype},
		{S: "<x>", P: "<p>", O: "<y>"},
	}
	got, e := materializeFacts(t, rules.RDFSFull, triples, false)
	want := oracleFacts(e, rules.RDFSFull, triples)
	diffFactSets(t, e, got, want, "rdfs-full axioms")
	// Spot checks.
	checks := []rdf.Triple{
		{S: "<C>", P: rdf.RDFSSubClassOf, O: "<C>"},             // RDFS10
		{S: "<C>", P: rdf.RDFType, O: rdf.RDFSResource},         // RDFS8
		{S: "<p>", P: rdf.RDFSSubPropertyOf, O: "<p>"},          // RDFS6
		{S: "<m>", P: rdf.RDFSSubPropertyOf, O: rdf.RDFSMember}, // RDFS12
		{S: "<d>", P: rdf.RDFSSubClassOf, O: rdf.RDFSLiteral},   // RDFS13
		{S: "<x>", P: rdf.RDFType, O: rdf.RDFSResource},         // RDFS4
	}
	for _, c := range checks {
		if !e.Contains(c) {
			t.Errorf("missing %v", c)
		}
	}
	_ = baseline.Fact{}
}

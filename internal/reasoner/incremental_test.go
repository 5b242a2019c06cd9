package reasoner

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// TestIncrementalMatchesOneShotAllFragments is the incrementality
// equivalence property: loading a random ontology in k batches with an
// incremental Materialize after each batch must yield exactly the
// one-shot closure of the whole input, computed by the independent
// hash-join evaluator, for every fragment.
func TestIncrementalMatchesOneShotAllFragments(t *testing.T) {
	fragments := []rules.Fragment{
		rules.RhoDF, rules.RDFSDefault, rules.RDFSFull, rules.RDFSPlus, rules.RDFSPlusFull,
	}
	for _, fragment := range fragments {
		t.Run(fragment.String(), func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cfg := datagen.RandomConfig{
					Classes:   4 + rng.Intn(5),
					Props:     3 + rng.Intn(4),
					Instances: 5 + rng.Intn(7),
					Schema:    8 + rng.Intn(12),
					Data:      10 + rng.Intn(20),
					Plus:      fragment.UsesSameAs(),
				}
				triples := datagen.RandomOntology(rng, cfg)
				k := 2 + rng.Intn(3) // 2–4 batches

				opts := Options{Fragment: fragment, Parallel: seed%2 == 0}
				inc := New(opts)
				for b := 0; b < k; b++ {
					lo := b * len(triples) / k
					hi := (b + 1) * len(triples) / k
					inc.LoadTriples(triples[lo:hi])
					st := inc.Materialize()
					if b > 0 && !st.Incremental {
						t.Fatalf("seed %d batch %d: expected an incremental run", seed, b)
					}
					if err := inc.CheckCarried(); err != nil {
						t.Fatalf("seed %d batch %d: %v", seed, b, err)
					}
				}
				checkAgainstOracle(t, inc, opts, fmt.Sprintf("seed %d (%d batches)", seed, k))
			}
		})
	}
}

// TestRulesSkippedOnLUBM is the scheduler's acceptance check: an
// incremental batch over the LUBM generator output must skip rules (only
// a subset of tables changes), and — full run, then one incremental
// batch — fire, skip and derive per round exactly what the golden
// records. The golden values were
// taken from the engine that still threaded a changed-property list
// beside the delta, so they pin "scheduling from the delta alone" to
// the same decisions.
func TestRulesSkippedOnLUBM(t *testing.T) {
	type rounds = []roundCounts
	for _, tc := range []struct {
		fragment    rules.Fragment
		encoding    bool
		full, batch rounds
	}{
		// Each row's comment is the golden of the engine that still closed
		// the θ tables through a THETA rule, one round after they changed.
		{rules.RDFSDefault, false,
			rounds{{8, 0, 1054}, {8, 0, 0}}, // {9, 0, 1054}, {8, 1, 0}
			rounds{{4, 4, 14}, {4, 4, 0}}},  // {4, 5, 14}, {4, 5, 0}
		{rules.RDFSDefault, true,
			rounds{{8, 0, 173}, {8, 0, 0}}, // {9, 0, 173}, {8, 1, 0}
			rounds{{4, 4, 13}, {3, 5, 0}}}, // {4, 5, 13}, {3, 6, 0}
		{rules.RDFSPlus, false,
			rounds{{22, 0, 1470}, {19, 3, 483}, {19, 3, 0}}, // {23, 0, 1437}, {20, 3, 460}, {21, 2, 56}, {16, 7, 0}
			rounds{{14, 8, 103}, {14, 8, 14}, {14, 8, 0}}},  // {15, 8, 100}, {15, 8, 7}, {12, 11, 10}, {15, 8, 0}
		{rules.RDFSPlus, true,
			rounds{{22, 0, 583}, {19, 3, 55}, {19, 3, 2}, {15, 7, 0}}, // {23, 0, 556}, {20, 3, 28}, {19, 4, 56}, {18, 5, 0}
			rounds{{14, 8, 101}, {11, 11, 14}, {14, 8, 0}}},           // {15, 8, 98}, {12, 11, 7}, {12, 11, 10}, {15, 8, 0}
	} {
		for _, parallel := range []bool{true, false} {
			label := fmt.Sprintf("%s encoding=%t parallel=%t", tc.fragment, tc.encoding, parallel)
			e := New(Options{Fragment: tc.fragment, Parallel: parallel, HierarchyEncoding: tc.encoding})
			e.LoadTriples(datagen.LUBM(3000, 5))
			checkRounds(t, label+" full", e, e.Materialize(), tc.full)
			e.LoadTriples(datagen.LUBM(600, 6))
			checkRounds(t, label+" batch", e, e.Materialize(), tc.batch)
		}
	}
}

// roundCounts is the golden part of a RoundStats: what the round did,
// without how long it took.
type roundCounts struct{ fired, skipped, newTriples int }

// checkRounds checks one materialization's per-iteration accounting
// against its golden and against itself.
func checkRounds(t *testing.T, label string, e *Engine, st Stats, want []roundCounts) {
	t.Helper()
	got := make([]roundCounts, len(st.Rounds))
	for i, r := range st.Rounds {
		got[i] = roundCounts{r.RulesFired, r.RulesSkipped, r.NewTriples}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: rounds %v, want %v", label, got, want)
	}
	// A full RDFS run has nothing to skip (every rule reads rdf:type or
	// any table); a batch touches only some tables.
	if st.RulesFired == 0 || (st.Incremental && st.RulesSkipped == 0) {
		t.Errorf("%s: fired %d, skipped %d; the scheduler must fire, and skip on a batch", label, st.RulesFired, st.RulesSkipped)
	}
	if len(st.Rounds) != st.Iterations {
		t.Errorf("%s: rounds %d != iterations %d", label, len(st.Rounds), st.Iterations)
	}
	// Every iteration partitions the ruleset.
	firedSum, skippedSum := 0, 0
	for i, r := range st.Rounds {
		if r.RulesFired+r.RulesSkipped != len(e.rules) {
			t.Errorf("%s round %d: fired %d + skipped %d != %d rules", label, i, r.RulesFired, r.RulesSkipped, len(e.rules))
		}
		firedSum += r.RulesFired
		skippedSum += r.RulesSkipped
	}
	if firedSum != st.RulesFired || skippedSum != st.RulesSkipped {
		t.Errorf("%s: totals (%d,%d) disagree with rounds (%d,%d)",
			label, st.RulesFired, st.RulesSkipped, firedSum, skippedSum)
	}
	// The first iteration of a full run fires everything.
	if !st.Incremental && st.Rounds[0].RulesSkipped != 0 {
		t.Errorf("%s: first iteration skipped %d rules", label, st.Rounds[0].RulesSkipped)
	}
}

// TestSchedulingMatchesOracle: skipping rules must never change the
// closure — the scheduled engine is checked against the spec-driven
// hash-join oracle on a workload large enough to take several
// iterations.
func TestSchedulingMatchesOracle(t *testing.T) {
	triples := datagen.LUBM(1500, 11)
	got, e := materializeFacts(t, rules.RDFSDefault, triples, true)
	want := oracleFacts(e, rules.RDFSDefault, triples)
	diffFactSets(t, e, got, want, "scheduled lubm")
}

// TestPromotionAcrossLoads is the regression for the owl:sameAs
// property-promotion audit: a term first encoded as a plain resource (in
// an earlier batch) and later linked to a property via owl:sameAs must
// still end up on the property side, with the previously stored triples
// rewritten, so EQ-REP-P can replicate the table.
func TestPromotionAcrossLoads(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSPlus})
	// Batch 1: <alias> is only ever an object — encoded as a resource.
	e.LoadTriples([]rdf.Triple{
		{S: "<doc>", P: "<mentions>", O: "<alias>"},
	})
	// Batch 2: the sameAs link reveals <alias> to be a property.
	e.LoadTriples([]rdf.Triple{
		{S: "<alias>", P: rdf.OWLSameAs, O: "<real>"},
		{S: "<x>", P: "<real>", O: "<y>"},
	})
	e.Materialize()
	if !e.Contains(rdf.Triple{S: "<x>", P: "<alias>", O: "<y>"}) {
		t.Fatal("EQ-REP-P failed: <alias> was not promoted across loads")
	}
	if !e.Contains(rdf.Triple{S: "<doc>", P: "<mentions>", O: "<alias>"}) {
		t.Fatal("pre-promotion triple lost after store rewrite")
	}
}

// TestPromotionAcrossMaterializations: the same scenario, but with a
// materialization between the two batches (the incremental path).
func TestPromotionAcrossMaterializations(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSPlus})
	e.LoadTriples([]rdf.Triple{
		{S: "<doc>", P: "<mentions>", O: "<alias>"},
	})
	e.Materialize()
	e.LoadTriples([]rdf.Triple{
		{S: "<alias>", P: rdf.OWLSameAs, O: "<real>"},
		{S: "<x>", P: "<real>", O: "<y>"},
	})
	st := e.Materialize()
	if !st.Incremental {
		t.Fatal("second materialization must be incremental")
	}
	if !e.Contains(rdf.Triple{S: "<x>", P: "<alias>", O: "<y>"}) {
		t.Fatal("EQ-REP-P failed after incremental promotion")
	}
	if !e.Contains(rdf.Triple{S: "<doc>", P: "<mentions>", O: "<alias>"}) {
		t.Fatal("pre-promotion triple lost after incremental store rewrite")
	}
}

// TestLateSchemaPromotion: a subPropertyOf triple arriving after its
// subject was resource-encoded must promote it, so PRP-SPO1 fires.
func TestLateSchemaPromotion(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSDefault})
	e.LoadTriples([]rdf.Triple{
		{S: "<a>", P: "<knows>", O: "<worksWith>"}, // <worksWith> becomes a resource
	})
	e.Materialize()
	e.LoadTriples([]rdf.Triple{
		{S: "<worksWith>", P: rdf.RDFSSubPropertyOf, O: "<knows>"},
		{S: "<b>", P: "<worksWith>", O: "<c>"},
	})
	e.Materialize()
	if !e.Contains(rdf.Triple{S: "<b>", P: "<knows>", O: "<c>"}) {
		t.Fatal("PRP-SPO1 failed: late schema triple did not promote <worksWith>")
	}
	if !e.Contains(rdf.Triple{S: "<a>", P: "<knows>", O: "<worksWith>"}) {
		t.Fatal("original triple lost after promotion rewrite")
	}
}

// TestIncrementalStatsAccounting: on an incremental run, the previous
// closure plus new inputs plus new inferences must equal the new total.
func TestIncrementalStatsAccounting(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSDefault, Parallel: true})
	e.LoadTriples(datagen.Chain(30))
	first := e.Materialize()
	e.LoadTriples(datagen.Chain(40)) // extends the chain: 10 new links
	second := e.Materialize()
	if !second.Incremental {
		t.Fatal("second run must be incremental")
	}
	if first.TotalTriples+second.InputTriples+second.InferredTriples != second.TotalTriples {
		t.Fatalf("accounting broken: %d + %d + %d != %d",
			first.TotalTriples, second.InputTriples, second.InferredTriples, second.TotalTriples)
	}
	// Input is the batch's own new links, not the θ closure pairs the
	// seeding round folds in.
	if second.InputTriples != 10 {
		t.Errorf("10 new links counted as input=%d inferred=%d", second.InputTriples, second.InferredTriples)
	}
	if second.TotalTriples != datagen.ChainClosureSize(40)+40 {
		t.Fatalf("incremental chain closure has %d triples, want %d",
			second.TotalTriples, datagen.ChainClosureSize(40)+40)
	}
	// No staged data: a further materialization is a cheap no-op.
	third := e.Materialize()
	if third.InputTriples != 0 || third.InferredTriples != 0 || third.Iterations != 0 {
		t.Fatalf("no-op incremental run did work: %+v", third)
	}
	if third.TotalTriples != second.TotalTriples {
		t.Fatal("no-op run changed the store")
	}

	// A guard trip: the round that merges ⟨X rdfs:subClassOf rdfs:Class⟩
	// expands every formerly virtual triple into its delta, none of them
	// input and none of them new to the visible closure.
	t.Run("guard trip", func(t *testing.T) {
		e := New(Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: true})
		e.LoadTriples(datagen.LUBM(20_000, 1))
		before := e.Materialize().TotalTriples
		e.LoadTriples([]rdf.Triple{{S: "<X>", P: rdf.RDFSSubClassOf, O: rdf.RDFSClass}})
		st := e.Materialize()
		if e.HierView() != nil {
			t.Fatal("fixture: a subclass of rdfs:Class must trip guard G1")
		}
		if st.InputTriples != 1 || st.InferredTriples < 0 || before+st.InputTriples+st.InferredTriples != st.TotalTriples {
			t.Errorf("one-triple batch: input=%d inferred=%d, total %d → %d", st.InputTriples, st.InferredTriples, before, st.TotalTriples)
		}
	})

	// A type triple and a subClassOf triple the index already serves
	// virtually are stored when asserted, yet were visible before the
	// batch: no input, nothing new.
	t.Run("virtually served", func(t *testing.T) {
		e := New(Options{Fragment: rules.RDFSDefault, HierarchyEncoding: true})
		e.LoadTriples([]rdf.Triple{
			{S: "<C>", P: rdf.RDFSSubClassOf, O: "<D>"},
			{S: "<D>", P: rdf.RDFSSubClassOf, O: "<E>"},
			{S: "<x>", P: rdf.RDFType, O: "<C>"},
		})
		before := e.Materialize().TotalTriples
		e.LoadTriples([]rdf.Triple{
			{S: "<x>", P: rdf.RDFType, O: "<D>"},
			{S: "<C>", P: rdf.RDFSSubClassOf, O: "<E>"},
		})
		st := e.Materialize()
		if e.HierView() == nil {
			t.Fatal("fixture: the encoding must stand")
		}
		if st.InputTriples != 0 || st.InferredTriples != 0 || st.TotalTriples != before {
			t.Errorf("re-asserting virtual triples: input=%d inferred=%d, total %d → %d", st.InputTriples, st.InferredTriples, before, st.TotalTriples)
		}
	})
}

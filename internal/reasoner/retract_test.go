package reasoner

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// visibleTriples returns the engine's visible closure as sorted triple
// strings — identical with the hierarchy encoding on or off, so
// maintained and rematerialized engines compare directly.
func visibleTriples(e *Engine) []string {
	var out []string
	e.Triples(func(t rdf.Triple) bool {
		out = append(out, t.S+" "+t.P+" "+t.O)
		return true
	})
	sort.Strings(out)
	return out
}

// assertedTriples decodes the engine's asserted record back to surface
// form.
func assertedTriples(e *Engine) []rdf.Triple {
	var out []rdf.Triple
	e.AssertedStore().ForEach(func(pidx int, s, o uint64) bool {
		out = append(out, rdf.Triple{
			S: e.Dict.MustDecode(s),
			P: e.Dict.MustDecode(dictionary.PropID(pidx)),
			O: e.Dict.MustDecode(o),
		})
		return true
	})
	return out
}

// checkAgainstRemat fails the test unless the maintained closure equals
// a from-scratch rematerialization of the engine's surviving asserted
// triples under the same options.
func checkAgainstRemat(t *testing.T, e *Engine, opts Options, label string) {
	t.Helper()
	got := visibleTriples(e)
	fresh := New(opts)
	fresh.LoadTriples(assertedTriples(e))
	fresh.Materialize()
	want := visibleTriples(fresh)
	if len(got) == len(want) {
		same := true
		for i := range got {
			if got[i] != want[i] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	gotSet := make(map[string]bool, len(got))
	for _, l := range got {
		gotSet[l] = true
	}
	wantSet := make(map[string]bool, len(want))
	for _, l := range want {
		wantSet[l] = true
	}
	var missing, extra []string
	for _, l := range want {
		if !gotSet[l] {
			missing = append(missing, l)
		}
	}
	for _, l := range got {
		if !wantSet[l] {
			extra = append(extra, l)
		}
	}
	limit := func(s []string) []string {
		if len(s) > 12 {
			return s[:12]
		}
		return s
	}
	t.Fatalf("%s: maintained closure (%d) != rematerialization of surviving asserted set (%d)\nmissing: %v\nextra: %v",
		label, len(got), len(want), limit(missing), limit(extra))
}

// TestRetractEquivalenceInterleaved is the correctness pin of the
// bidirectional write path: for randomized interleavings of incremental
// inserts and DRed retractions, across every fragment with the
// hierarchy encoding on and off, the maintained closure must equal a
// from-scratch rematerialization of the surviving asserted triples
// after every single operation.
func TestRetractEquivalenceInterleaved(t *testing.T) {
	fragments := []rules.Fragment{
		rules.RhoDF, rules.RDFSDefault, rules.RDFSFull, rules.RDFSPlus, rules.RDFSPlusFull,
	}
	for _, fragment := range fragments {
		for _, encoded := range []bool{false, true} {
			fragment, encoded := fragment, encoded
			t.Run(fmt.Sprintf("%s/encoding=%v", fragment, encoded), func(t *testing.T) {
				for seed := int64(0); seed < 6; seed++ {
					rng := rand.New(rand.NewSource(seed*31 + 7))
					cfg := datagen.RandomConfig{
						Classes:   4 + rng.Intn(5),
						Props:     3 + rng.Intn(4),
						Instances: 5 + rng.Intn(6),
						Schema:    8 + rng.Intn(10),
						Data:      10 + rng.Intn(20),
						Plus:      fragment.UsesSameAs(),
					}
					pool := datagen.RandomOntology(rng, cfg)
					opts := Options{
						Fragment:          fragment,
						Parallel:          seed%2 == 0,
						HierarchyEncoding: encoded,
					}
					e := New(opts)
					cut := len(pool) * 2 / 3
					e.LoadTriples(pool[:cut])
					e.Materialize()
					rest := pool[cut:]
					for op := 0; op < 8; op++ {
						var label string
						if len(rest) > 0 && rng.Intn(2) == 0 {
							n := 1 + rng.Intn(4)
							if n > len(rest) {
								n = len(rest)
							}
							e.LoadTriples(rest[:n])
							rest = rest[n:]
							e.Materialize()
							label = fmt.Sprintf("seed %d op %d insert %d", seed, op, n)
						} else {
							cur := assertedTriples(e)
							if len(cur) == 0 {
								continue
							}
							n := 1 + rng.Intn(3)
							batch := make([]rdf.Triple, 0, n+1)
							for i := 0; i < n; i++ {
								batch = append(batch, cur[rng.Intn(len(cur))])
							}
							// Sometimes also ask for a visible (possibly
							// derived-only) triple: deleting a non-asserted
							// triple must be a no-op, not an error.
							if rng.Intn(3) == 0 {
								all := visibleTriples(e)
								if len(all) > 0 {
									pick := all[rng.Intn(len(all))]
									var tr rdf.Triple
									fmt.Sscanf(pick, "%s %s %s", &tr.S, &tr.P, &tr.O)
									batch = append(batch, tr)
								}
							}
							if _, err := e.Retract(batch); err != nil {
								t.Fatalf("seed %d op %d: Retract: %v", seed, op, err)
							}
							label = fmt.Sprintf("seed %d op %d delete %d", seed, op, len(batch))
						}
						checkAgainstRemat(t, e, opts, label)
						// Compaction visits only the runs a round touched;
						// that is sound only while a full sweep would find
						// nothing more (zero too when the encoding is off).
						if n := e.ShadowedTypePairs(); n != 0 {
							t.Errorf("%s: %d stored type pairs are shadowed; the table must stay compact", label, n)
						}
						if t.Failed() {
							return
						}
					}
				}
			})
		}
	}
}

// TestRetractChainLink retracts a middle subClassOf link and checks the
// transitive consequences crossing it disappear while everything else
// survives — with and without the hierarchy encoding (where a schema
// retraction must drop the encoding).
func TestRetractChainLink(t *testing.T) {
	for _, encoded := range []bool{false, true} {
		t.Run(fmt.Sprintf("encoding=%v", encoded), func(t *testing.T) {
			opts := Options{Fragment: rules.RDFSDefault, Parallel: true, HierarchyEncoding: encoded}
			e := New(opts)
			e.LoadTriples([]rdf.Triple{
				{S: "<a>", P: rdf.RDFSSubClassOf, O: "<b>"},
				{S: "<b>", P: rdf.RDFSSubClassOf, O: "<c>"},
				{S: "<c>", P: rdf.RDFSSubClassOf, O: "<d>"},
				{S: "<x>", P: rdf.RDFType, O: "<a>"},
			})
			e.Materialize()
			if !e.Contains(rdf.Triple{S: "<x>", P: rdf.RDFType, O: "<d>"}) {
				t.Fatal("closure missing ⟨x type d⟩ before retraction")
			}
			st, err := e.Retract([]rdf.Triple{{S: "<b>", P: rdf.RDFSSubClassOf, O: "<c>"}})
			if err != nil {
				t.Fatal(err)
			}
			if encoded && !st.EncodingDropped {
				t.Error("schema retraction under the encoding did not report EncodingDropped")
			}
			for _, gone := range []rdf.Triple{
				{S: "<b>", P: rdf.RDFSSubClassOf, O: "<c>"},
				{S: "<a>", P: rdf.RDFSSubClassOf, O: "<c>"},
				{S: "<a>", P: rdf.RDFSSubClassOf, O: "<d>"},
				{S: "<x>", P: rdf.RDFType, O: "<c>"},
				{S: "<x>", P: rdf.RDFType, O: "<d>"},
			} {
				if e.Contains(gone) {
					t.Errorf("closure still contains %v after retracting the supporting link", gone)
				}
			}
			for _, kept := range []rdf.Triple{
				{S: "<a>", P: rdf.RDFSSubClassOf, O: "<b>"},
				{S: "<c>", P: rdf.RDFSSubClassOf, O: "<d>"},
				{S: "<x>", P: rdf.RDFType, O: "<a>"},
				{S: "<x>", P: rdf.RDFType, O: "<b>"},
			} {
				if !e.Contains(kept) {
					t.Errorf("closure lost %v, which does not depend on the retracted link", kept)
				}
			}
			checkAgainstRemat(t, e, opts, "chain link")
		})
	}
}

// TestRetractDerivedIsNoOp checks that retracting a derived-only or
// unknown triple changes nothing.
func TestRetractDerivedIsNoOp(t *testing.T) {
	opts := Options{Fragment: rules.RDFSDefault, Parallel: true}
	e := New(opts)
	e.LoadTriples([]rdf.Triple{
		{S: "<a>", P: rdf.RDFSSubClassOf, O: "<b>"},
		{S: "<b>", P: rdf.RDFSSubClassOf, O: "<c>"},
		{S: "<x>", P: rdf.RDFType, O: "<a>"},
	})
	e.Materialize()
	before := visibleTriples(e)
	st, err := e.Retract([]rdf.Triple{
		{S: "<a>", P: rdf.RDFSSubClassOf, O: "<c>"}, // derived, not asserted
		{S: "<x>", P: rdf.RDFType, O: "<b>"},        // derived, not asserted
		{S: "<nope>", P: rdf.RDFType, O: "<never>"}, // unknown terms
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Retracted != 0 || st.Overdeleted != 0 {
		t.Errorf("no-op retraction reported Retracted=%d Overdeleted=%d", st.Retracted, st.Overdeleted)
	}
	after := visibleTriples(e)
	if len(before) != len(after) {
		t.Fatalf("closure changed on a no-op retraction: %d -> %d triples", len(before), len(after))
	}
}

// TestRetractThenReassert deletes a batch and loads it again: the
// closure must come back exactly.
func TestRetractThenReassert(t *testing.T) {
	opts := Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: true}
	e := New(opts)
	triples := datagen.LUBM(300, 3)
	e.LoadTriples(triples)
	e.Materialize()
	before := visibleTriples(e)

	rng := rand.New(rand.NewSource(5))
	batch := make([]rdf.Triple, 0, 20)
	for i := 0; i < 20; i++ {
		batch = append(batch, triples[rng.Intn(len(triples))])
	}
	if _, err := e.Retract(batch); err != nil {
		t.Fatal(err)
	}
	e.LoadTriples(batch)
	e.Materialize()
	after := visibleTriples(e)
	if len(before) != len(after) {
		t.Fatalf("delete+reassert changed the closure: %d -> %d triples", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("delete+reassert changed the closure at %q -> %q", before[i], after[i])
		}
	}
}

// TestRetractPreconditions checks the two refusal paths.
func TestRetractPreconditions(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSDefault})
	e.LoadTriples([]rdf.Triple{{S: "<x>", P: rdf.RDFType, O: "<a>"}})
	if _, err := e.Retract([]rdf.Triple{{S: "<x>", P: rdf.RDFType, O: "<a>"}}); err == nil {
		t.Error("Retract before Materialize did not fail")
	}
	e.Materialize()
	e.LoadTriples([]rdf.Triple{{S: "<y>", P: rdf.RDFType, O: "<a>"}}) // staged
	if _, err := e.Retract([]rdf.Triple{{S: "<x>", P: rdf.RDFType, O: "<a>"}}); err == nil {
		t.Error("Retract with a staged delta did not fail")
	}
	e.Materialize()
	if _, err := e.Retract([]rdf.Triple{{S: "<x>", P: rdf.RDFType, O: "<a>"}}); err != nil {
		t.Errorf("Retract after materializing the staged delta failed: %v", err)
	}
}

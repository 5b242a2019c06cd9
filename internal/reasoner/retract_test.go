package reasoner

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"inferray/internal/baseline"
	"inferray/internal/datagen"
	"inferray/internal/dictionary"
	"inferray/internal/metrics"
	"inferray/internal/rdf"
	"inferray/internal/rules"
	"inferray/internal/store"
)

// visibleTriples returns the engine's visible closure as sorted triple
// strings — identical with the hierarchy encoding on or off.
func visibleTriples(e *Engine) []string {
	var out []string
	e.Triples(func(t rdf.Triple) bool {
		out = append(out, t.S+" "+t.P+" "+t.O)
		return true
	})
	sort.Strings(out)
	return out
}

// assertedTriples decodes the engine's asserted triples — the marked
// pairs of Main — back to surface form.
func assertedTriples(e *Engine) []rdf.Triple {
	var out []rdf.Triple
	e.Main.ForEachTable(func(pidx int, t *store.Table) bool {
		for i, p := 0, t.Pairs(); i < len(p); i += 2 {
			if t.Marked(i / 2) {
				out = append(out, rdf.Triple{
					S: e.Dict.MustDecode(p[i]),
					P: e.Dict.MustDecode(dictionary.PropID(pidx)),
					O: e.Dict.MustDecode(p[i+1]),
				})
			}
		}
		return true
	})
	return out
}

// checkAgainstOracle fails the test unless the maintained visible
// closure equals the closure of the engine's surviving asserted triples
// computed by the independent hash-join evaluator (oracleFacts).
func checkAgainstOracle(t *testing.T, e *Engine, opts Options, label string) {
	t.Helper()
	got := map[baseline.Fact]struct{}{}
	e.Triples(func(tr rdf.Triple) bool {
		s, _ := e.Dict.Lookup(tr.S)
		p, _ := e.Dict.Lookup(tr.P)
		o, _ := e.Dict.Lookup(tr.O)
		got[baseline.Fact{s, p, o}] = struct{}{}
		return true
	})
	diffFactSets(t, e, got, oracleFacts(e, opts.Fragment, assertedTriples(e)), label)
	if t.Failed() {
		t.FailNow()
	}
}

// TestRetractEquivalenceInterleaved is the correctness pin of the
// bidirectional write path: for randomized interleavings of incremental
// inserts and DRed retractions, across every fragment with the
// hierarchy encoding on and off, the maintained closure must equal the
// independent hash-join evaluator's closure of the surviving asserted
// triples after every single operation — and so must everything the write path
// carries instead of recomputing (CheckCarried: the visible count, the
// cached ⟨o,s⟩ lists). Seeds 0–5 churn random ontologies of a few dozen
// triples, where every change is a large share of its table; seed 6
// churns a LUBM base, whose tables are long enough for single triples
// to take the in-place path, and the store's counters must say they did.
// A cache is built only when something probes by object, so seed 6 first
// reads every table in object order, as a server's readers would.
func TestRetractEquivalenceInterleaved(t *testing.T) {
	fragments := []rules.Fragment{
		rules.RhoDF, rules.RDFSDefault, rules.RDFSFull, rules.RDFSPlus, rules.RDFSPlusFull,
	}
	for _, fragment := range fragments {
		for _, encoded := range []bool{false, true} {
			fragment, encoded := fragment, encoded
			t.Run(fmt.Sprintf("%s/encoding=%v", fragment, encoded), func(t *testing.T) {
				for seed := int64(0); seed < 7; seed++ {
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
					if seed == 6 {
						pool = datagen.LUBM(2500, 6)
					}
					opts := Options{
						Fragment:          fragment,
						Parallel:          seed%2 == 0,
						HierarchyEncoding: encoded,
					}
					m := NewMetrics(metrics.NewRegistry())
					watched := opts
					watched.Metrics = m
					e := New(watched)
					cut := len(pool) * 2 / 3
					e.LoadTriples(pool[:cut])
					e.Materialize()
					if seed == 6 {
						e.Main.ForEachTable(func(_ int, tab *store.Table) bool {
							tab.OS()
							return true
						})
					}
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
						checkAgainstOracle(t, e, opts, label)
						if err := e.CheckCarried(); err != nil {
							t.Errorf("%s: %v", label, err)
						}
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
					if seed == 6 {
						splices := m.Store.Merges.With("splice").Value()
						patched := m.Store.OSCache.With("patched").Value()
						if splices == 0 || patched == 0 {
							t.Errorf("seed 6: %d spliced merges, %d patched caches: the LUBM churn never took the in-place path", splices, patched)
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
			checkAgainstOracle(t, e, opts, "chain link")
			if err := e.CheckCarried(); err != nil {
				t.Error(err)
			}
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

// TestRetractAssertedUnderDerivedShadow: an asserted ⟨x type D⟩ that a
// *derived* ⟨x type C⟩, C ⊑ D, shadows stays stored under its mark — no
// side record knows it otherwise — so it can be retracted (and stays
// visible through C afterwards), and it holds the membership on its own
// once C's support is deleted, in either order.
func TestRetractAssertedUnderDerivedShadow(t *testing.T) {
	xD := rdf.Triple{S: "<x>", P: rdf.RDFType, O: "<D>"}
	xC := rdf.Triple{S: "<x>", P: rdf.RDFType, O: "<C>"}
	support := rdf.Triple{S: "<x>", P: "<p>", O: "<y>"}
	for _, c := range []struct {
		name          string
		first, second rdf.Triple
		visibleAfter1 bool // ⟨x type D⟩ after the first retraction
		storedAfter1  bool
	}{
		{"assertion first", xD, support, true, false},
		{"support first", support, xD, true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{Fragment: rules.RDFSDefault, HierarchyEncoding: true}
			e := New(opts)
			e.LoadTriples([]rdf.Triple{
				{S: "<C>", P: rdf.RDFSSubClassOf, O: "<D>"},
				{S: "<p>", P: rdf.RDFSDomain, O: "<C>"},
				support, xD,
			})
			e.Materialize()
			if e.HierView() == nil || !storedType(t, e, "<x>", "<C>") {
				t.Fatal("fixture: ⟨x type C⟩ must be derived and stored under the encoding")
			}
			if !storedType(t, e, "<x>", "<D>") || e.ShadowedTypePairs() != 0 {
				t.Fatalf("asserted shadowed pair stored=%t, unmarked shadowed pairs=%d",
					storedType(t, e, "<x>", "<D>"), e.ShadowedTypePairs())
			}
			st, err := e.Retract([]rdf.Triple{c.first})
			if err != nil || st.Retracted != 1 {
				t.Fatalf("first retraction: %+v, %v", st, err)
			}
			if e.Contains(xD) != c.visibleAfter1 || storedType(t, e, "<x>", "<D>") != c.storedAfter1 {
				t.Errorf("after retracting %v: ⟨x type D⟩ visible=%t stored=%t, want %t/%t",
					c.first, e.Contains(xD), storedType(t, e, "<x>", "<D>"), c.visibleAfter1, c.storedAfter1)
			}
			checkAgainstOracle(t, e, opts, c.name+" first")
			st, err = e.Retract([]rdf.Triple{c.second})
			if err != nil || st.Retracted != 1 {
				t.Fatalf("second retraction: %+v, %v", st, err)
			}
			if e.Contains(xD) || e.Contains(xC) {
				t.Error("⟨x type C⟩ / ⟨x type D⟩ outlived both their supports")
			}
			checkAgainstOracle(t, e, opts, c.name+" second")
			if n := e.ShadowedTypePairs(); n != 0 {
				t.Errorf("%d unmarked shadowed pairs left stored", n)
			}
		})
	}
}

// TestRetractSchemaOverCycle: under the encoding, a domain or range on one
// member of a subsumption cycle is expanded to the other, and retracting
// it must take that expansion and the typings it made along, whichever
// member the retraction names. A and B are equivalent, by two subClassOf
// edges or by owl:equivalentClass, and A is interned first, so it has the
// smaller id.
func TestRetractSchemaOverCycle(t *testing.T) {
	sc := func(a, b string) rdf.Triple { return rdf.Triple{S: a, P: rdf.RDFSSubClassOf, O: b} }
	for _, cycle := range []struct {
		name  string
		edges []rdf.Triple
	}{
		{"subClassOf", []rdf.Triple{sc("<A>", "<B>"), sc("<B>", "<A>")}},
		{"equivalentClass", []rdf.Triple{{S: "<A>", P: rdf.OWLEquivalentClass, O: "<B>"}}},
	} {
		for _, schema := range []string{rdf.RDFSDomain, rdf.RDFSRange} {
			for _, cls := range []string{"<A>", "<B>"} {
				label := fmt.Sprintf("%s cycle, retract ⟨p %s %s⟩", cycle.name, schema, cls)
				opts := Options{Fragment: rules.RDFSPlus, HierarchyEncoding: true}
				e := New(opts)
				decl := rdf.Triple{S: "<p>", P: schema, O: cls}
				e.LoadTriples(append(slices.Clone(cycle.edges), decl, rdf.Triple{S: "<x>", P: "<p>", O: "<y>"}))
				e.Materialize()
				typed := "<x>"
				if schema == rdf.RDFSRange {
					typed = "<y>"
				}
				if e.HierView() == nil || !e.Contains(rdf.Triple{S: typed, P: rdf.RDFType, O: "<A>"}) {
					t.Fatalf("%s: fixture: the encoding must be on and %s typed A", label, typed)
				}
				if st, err := e.Retract([]rdf.Triple{decl}); err != nil || st.Retracted != 1 {
					t.Fatalf("%s: %+v, %v", label, st, err)
				}
				for _, c := range []string{"<A>", "<B>"} {
					if e.Contains(rdf.Triple{S: "<p>", P: schema, O: c}) || e.Contains(rdf.Triple{S: typed, P: rdf.RDFType, O: c}) {
						t.Errorf("%s: ⟨p %s %s⟩ or ⟨%s type %s⟩ outlived the retraction", label, schema, c, typed, c)
					}
				}
				checkAgainstOracle(t, e, opts, label)
				if err := e.CheckCarried(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
}

// TestAssertAlreadyDerived: loading a triple the closure already stores
// as a derivation is a mark, not a change — no new input, no table
// version moved — and from then on the triple stands on its own: it
// outlives its derivation's support and goes when it is retracted.
func TestAssertAlreadyDerived(t *testing.T) {
	xC := rdf.Triple{S: "<x>", P: rdf.RDFType, O: "<C>"}
	support := rdf.Triple{S: "<x>", P: "<p>", O: "<y>"}
	for _, encoded := range []bool{false, true} {
		t.Run(fmt.Sprintf("encoding=%v", encoded), func(t *testing.T) {
			opts := Options{Fragment: rules.RDFSDefault, HierarchyEncoding: encoded}
			e := New(opts)
			e.LoadTriples([]rdf.Triple{{S: "<p>", P: rdf.RDFSDomain, O: "<C>"}, support})
			e.Materialize()
			if !storedType(t, e, "<x>", "<C>") {
				t.Fatal("fixture: ⟨x type C⟩ must be derived and stored")
			}
			if st, _ := e.Retract([]rdf.Triple{xC}); st.Retracted != 0 {
				t.Fatalf("a derived-only triple was retractable: %+v", st)
			}
			sum := e.Main.VersionSum()
			e.LoadTriples([]rdf.Triple{xC})
			if st := e.Materialize(); st.InputTriples != 0 || st.Iterations != 0 || e.Main.VersionSum() != sum {
				t.Errorf("asserting a stored derivation moved the store: %+v, version sum %d -> %d", st, sum, e.Main.VersionSum())
			}
			if st, err := e.Retract([]rdf.Triple{support}); err != nil || st.Retracted != 1 {
				t.Fatalf("retracting the support: %+v, %v", st, err)
			}
			if !e.Contains(xC) {
				t.Error("the asserted triple fell with its former derivation")
			}
			checkAgainstOracle(t, e, opts, "support gone")
			if st, err := e.Retract([]rdf.Triple{xC}); err != nil || st.Retracted != 1 || e.Contains(xC) {
				t.Errorf("retracting the assertion: %+v, %v, still visible %t", st, err, e.Contains(xC))
			}
			checkAgainstOracle(t, e, opts, "assertion gone")
		})
	}
}

// TestRederiveKeepsWhatCanBeNew drives retraction's rederivation filter
// (possiblyNew) through the cases its containment argument rests on, each
// checked against the hash-join oracle's closure of the surviving input
// with the hierarchy encoding on and off.
func TestRederiveKeepsWhatCanBeNew(t *testing.T) {
	const ns = "<http://example.org/"
	schema := []rdf.Triple{
		{S: ns + "Student>", P: rdf.RDFSSubClassOf, O: ns + "Person>"},
		{S: ns + "takesCourse>", P: rdf.RDFSDomain, O: ns + "Student>"},
		{S: ns + "memberOf>", P: rdf.RDFSDomain, O: ns + "Person>"},
		{S: ns + "partOf>", P: rdf.RDFType, O: rdf.OWLTransitiveProperty},
	}
	for _, tc := range []struct {
		name            string
		data, del       []rdf.Triple
		gone, stay      []rdf.Triple
		encodingDropped bool
	}{
		{
			// ⟨x type Person⟩ was never stored under the encoding: the stored
			// ⟨x type Student⟩ served it. Deleting the course dooms Student,
			// and the pass re-derives Person from memberOf — a pair that is
			// neither stored nor doomed, which the filter must keep because
			// its subject lost a type pair.
			name: "unshadowed type pair",
			data: []rdf.Triple{
				{S: ns + "x>", P: ns + "takesCourse>", O: ns + "c>"},
				{S: ns + "x>", P: ns + "memberOf>", O: ns + "d>"},
				{S: ns + "y>", P: ns + "takesCourse>", O: ns + "c>"},
			},
			del:  []rdf.Triple{{S: ns + "x>", P: ns + "takesCourse>", O: ns + "c>"}},
			gone: []rdf.Triple{{S: ns + "x>", P: rdf.RDFType, O: ns + "Student>"}},
			stay: []rdf.Triple{
				{S: ns + "x>", P: rdf.RDFType, O: ns + "Person>"},
				{S: ns + "y>", P: rdf.RDFType, O: ns + "Student>"},
				{S: ns + "y>", P: rdf.RDFType, O: ns + "Person>"},
			},
		},
		{
			// A doomed pair with a second derivation: out ∩ doomed.
			name: "second support",
			data: []rdf.Triple{
				{S: ns + "x>", P: ns + "takesCourse>", O: ns + "c>"},
				{S: ns + "x>", P: ns + "takesCourse>", O: ns + "c2>"},
			},
			del:  []rdf.Triple{{S: ns + "x>", P: ns + "takesCourse>", O: ns + "c>"}},
			stay: []rdf.Triple{{S: ns + "x>", P: rdf.RDFType, O: ns + "Student>"}},
		},
		{
			// θ step: one owl:sameAs edge of a chain. Its clique, here the
			// whole sameAs table, is overdeleted; the pass restores what
			// a ~ b's absence leaves.
			name: "sameAs edge",
			data: []rdf.Triple{
				{S: ns + "a>", P: rdf.OWLSameAs, O: ns + "b>"},
				{S: ns + "b>", P: rdf.OWLSameAs, O: ns + "c>"},
				{S: ns + "a>", P: ns + "memberOf>", O: ns + "d>"},
			},
			del:  []rdf.Triple{{S: ns + "a>", P: rdf.OWLSameAs, O: ns + "b>"}},
			gone: []rdf.Triple{{S: ns + "c>", P: ns + "memberOf>", O: ns + "d>"}, {S: ns + "a>", P: rdf.OWLSameAs, O: ns + "c>"}},
			stay: []rdf.Triple{{S: ns + "c>", P: rdf.OWLSameAs, O: ns + "b>"}},
		},
		{
			// θ step: an edge of a declared-transitive property's chain,
			// whose neighbourhood here is the whole table.
			name: "transitive edge",
			data: []rdf.Triple{
				{S: ns + "u>", P: ns + "partOf>", O: ns + "v>"},
				{S: ns + "v>", P: ns + "partOf>", O: ns + "w>"},
				{S: ns + "w>", P: ns + "partOf>", O: ns + "z>"},
			},
			del:  []rdf.Triple{{S: ns + "u>", P: ns + "partOf>", O: ns + "v>"}},
			gone: []rdf.Triple{{S: ns + "u>", P: ns + "partOf>", O: ns + "z>"}},
			stay: []rdf.Triple{{S: ns + "v>", P: ns + "partOf>", O: ns + "z>"}},
		},
		{
			// A schema edge: the encoding expands first (EncodingDropped), so
			// the filter runs with every type pair stored — out ∩ doomed only.
			name: "schema edge",
			data: []rdf.Triple{
				{S: ns + "x>", P: ns + "takesCourse>", O: ns + "c>"},
				{S: ns + "x>", P: ns + "memberOf>", O: ns + "d>"},
				{S: ns + "y>", P: ns + "takesCourse>", O: ns + "c>"},
			},
			del:             []rdf.Triple{{S: ns + "Student>", P: rdf.RDFSSubClassOf, O: ns + "Person>"}},
			gone:            []rdf.Triple{{S: ns + "y>", P: rdf.RDFType, O: ns + "Person>"}},
			stay:            []rdf.Triple{{S: ns + "x>", P: rdf.RDFType, O: ns + "Person>"}, {S: ns + "y>", P: rdf.RDFType, O: ns + "Student>"}},
			encodingDropped: true,
		},
	} {
		for _, encoded := range []bool{true, false} {
			label := fmt.Sprintf("%s/encoding=%v", tc.name, encoded)
			opts := Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: encoded}
			e := New(opts)
			e.LoadTriples(append(slices.Clone(schema), tc.data...))
			e.Materialize()
			for _, tr := range append(slices.Clone(tc.gone), tc.stay...) {
				if !e.Contains(tr) {
					t.Fatalf("%s: closure lacks %v before the retraction", label, tr)
				}
			}
			st, err := e.Retract(tc.del)
			if err != nil || st.Retracted != len(tc.del) {
				t.Fatalf("%s: Retract: %+v, %v", label, st, err)
			}
			if st.EncodingDropped != (encoded && tc.encodingDropped) {
				t.Errorf("%s: EncodingDropped = %t", label, st.EncodingDropped)
			}
			if st.RederiveKept > st.RederiveEmitted {
				t.Errorf("%s: kept %d of %d emitted pairs", label, st.RederiveKept, st.RederiveEmitted)
			}
			for _, tr := range tc.gone {
				if e.Contains(tr) {
					t.Errorf("%s: %v survived the retraction", label, tr)
				}
			}
			for _, tr := range tc.stay {
				if !e.Contains(tr) {
					t.Errorf("%s: %v was lost: it has support the retraction did not touch", label, tr)
				}
			}
			checkAgainstOracle(t, e, opts, label)
			if err := e.CheckCarried(); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			if n := e.ShadowedTypePairs(); n != 0 {
				t.Errorf("%s: %d stored type pairs are shadowed", label, n)
			}
		}
	}
}

package reasoner

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/rules"
	"inferray/internal/store"
)

// loadTriplesSequential is the loader LoadTriples replaced, kept as the
// numbering oracle: two passes over the batch, one dictionary call per
// term occurrence, tables grown by append. Every ID it assigns and
// every pair it stores is what the range-based loader must reproduce.
func (e *Engine) loadTriplesSequential(triples []rdf.Triple) {
	if len(triples) == 0 {
		return
	}
	d := e.Dict
	renames := make(map[uint64]uint64)
	asProperty := func(term string) {
		if id, ok := d.Lookup(term); ok && dictionary.IsProperty(id) {
			return
		}
		newID, oldID, moved := d.PromoteToProperty(term)
		if moved {
			renames[oldID] = newID
		}
	}
	var sameAs [][2]string
	for _, t := range triples {
		asProperty(t.P)
		switch t.P {
		case rdf.RDFSSubPropertyOf, rdf.OWLEquivalentProperty, rdf.OWLInverseOf:
			asProperty(t.S)
			asProperty(t.O)
		case rdf.RDFSDomain, rdf.RDFSRange:
			asProperty(t.S)
		case rdf.OWLSameAs:
			sameAs = append(sameAs, [2]string{t.S, t.O})
		case rdf.RDFType:
			switch t.O {
			case rdf.RDFProperty, rdf.RDFSContainerMembershipProperty,
				rdf.OWLFunctionalProperty, rdf.OWLInverseFunctionalProperty,
				rdf.OWLSymmetricProperty, rdf.OWLTransitiveProperty,
				rdf.OWLDatatypeProperty, rdf.OWLObjectProperty:
				asProperty(t.S)
			}
		}
	}
	for changed := true; changed && len(sameAs) > 0; {
		changed = false
		for _, pair := range sameAs {
			a, aOK := d.Lookup(pair[0])
			b, bOK := d.Lookup(pair[1])
			aProp := aOK && dictionary.IsProperty(a)
			bProp := bOK && dictionary.IsProperty(b)
			switch {
			case aProp && !bProp:
				asProperty(pair[1])
				changed = true
			case bProp && !aProp:
				asProperty(pair[0])
				changed = true
			}
		}
	}
	if len(renames) > 0 {
		e.Main.RewriteTerms(renames)
		if e.staged != nil && e.staged != e.Main {
			e.staged.RewriteTerms(renames)
		}
		e.V = rules.ResolveVocab(d)
	}
	if e.staged == nil {
		e.staged = store.New(d.NumProperties())
	}
	e.staged.Grow(d.NumProperties())
	for _, t := range triples {
		p, _ := d.Lookup(t.P)
		s := d.EncodeResource(t.S)
		o := d.EncodeResource(t.O)
		pidx := dictionary.PropIndex(p)
		e.staged.Add(pidx, s, o)
	}
	e.Main.Grow(d.NumProperties())
}

// numberingBatch draws triples over a small universe in which the same
// term turns up in every position: as a plain subject or object in one
// batch and as a predicate, the subject of a schema triple, the subject
// of a ⟨x rdf:type owl:…Property⟩ marker or one end of an owl:sameAs
// link in a later one (late promotion), and schema triples name
// properties no data triple has used yet.
func numberingBatch(rng *rand.Rand, universe, n int) []rdf.Triple {
	term := func() string {
		if rng.Intn(8) == 0 {
			return fmt.Sprintf("\"lit %d\"", rng.Intn(universe))
		}
		return fmt.Sprintf("<http://e/t%d>", rng.Intn(universe))
	}
	iri := func() string { return fmt.Sprintf("<http://e/t%d>", rng.Intn(universe)) }
	schema := []string{
		rdf.RDFSSubPropertyOf, rdf.OWLEquivalentProperty, rdf.OWLInverseOf,
		rdf.RDFSDomain, rdf.RDFSRange, rdf.OWLSameAs, rdf.RDFSSubClassOf,
	}
	markers := []string{
		rdf.RDFProperty, rdf.OWLTransitiveProperty, rdf.OWLSymmetricProperty,
		rdf.OWLFunctionalProperty, rdf.RDFSClass,
	}
	out := make([]rdf.Triple, 0, n)
	for len(out) < n {
		switch k := rng.Intn(20); {
		case k < 3:
			out = append(out, rdf.Triple{S: iri(), P: schema[rng.Intn(len(schema))], O: iri()})
		case k < 5:
			out = append(out, rdf.Triple{S: iri(), P: rdf.RDFType, O: markers[rng.Intn(len(markers))]})
		case k < 6:
			out = append(out, rdf.Triple{S: iri(), P: rdf.RDFType, O: iri()})
		default:
			out = append(out, rdf.Triple{S: iri(), P: iri(), O: term()})
		}
	}
	return out
}

func rawPairsEqual(t *testing.T, label string, got, want *store.Store) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: store presence differs (got nil: %t, want nil: %t)", label, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	if got.NumSlots() != want.NumSlots() {
		t.Fatalf("%s: %d slots, want %d", label, got.NumSlots(), want.NumSlots())
	}
	for pidx := 0; pidx < want.NumSlots(); pidx++ {
		g, w := got.Table(pidx), want.Table(pidx)
		if (g == nil) != (w == nil) {
			t.Fatalf("%s: table %d presence differs", label, pidx)
		}
		if g == nil {
			continue
		}
		if !slices.Equal(g.RawPairs(), w.RawPairs()) {
			t.Fatalf("%s: table %d pairs differ", label, pidx)
		}
		if g.Version() != w.Version() {
			t.Fatalf("%s: table %d version %d, want %d", label, pidx, g.Version(), w.Version())
		}
	}
}

// TestLoadTriplesNumberingMatchesSequential: however a batch is cut
// into ranges, the range-based loader assigns every term the ID the
// sequential two-pass loader assigns and stores the identical pairs in
// the identical order — across incremental multi-batch loads with late
// promotions, before and after materializations.
func TestLoadTriplesNumberingMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for ranges := 1; ranges <= 8; ranges++ {
			rng := rand.New(rand.NewSource(seed))
			universe := 6 + rng.Intn(60)
			// One fixpoint iteration is enough to move the engine onto the
			// staged-delta path; the closure of such data is not the subject.
			opts := Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: seed%2 == 0, MaxIterations: 1}
			got, want := New(opts), New(opts)
			batches := 2 + rng.Intn(4)
			for b := 0; b < batches; b++ {
				size := 1 + rng.Intn(120)
				if seed == 3 && b == 1 {
					size = 3 * ranges * minRangeTriples / 2 // ranges large enough to be interned concurrently
				}
				batch := numberingBatch(rng, universe, size)
				got.LoadRanges(got.internN(batch, ranges))
				want.loadTriplesSequential(batch)

				label := fmt.Sprintf("seed %d, %d ranges, batch %d", seed, ranges, b)
				if g, w := got.Dict.NumProperties(), want.Dict.NumProperties(); g != w {
					t.Fatalf("%s: %d properties, want %d", label, g, w)
				}
				if g, w := got.Dict.NumResources(), want.Dict.NumResources(); g != w {
					t.Fatalf("%s: %d resources, want %d", label, g, w)
				}
				_, hi := want.Dict.ResourceIDRange()
				for id := dictionary.PropID(want.Dict.NumProperties() - 1); id < hi; id++ {
					g, gOK := got.Dict.Decode(id)
					w, wOK := want.Dict.Decode(id)
					if g != w || gOK != wOK {
						t.Fatalf("%s: id %d decodes to %q (%t), want %q (%t)", label, id, g, gOK, w, wOK)
					}
					if !wOK {
						continue // a slot a promotion tombstoned
					}
					if back, ok := got.Dict.Lookup(w); !ok || back != id {
						t.Fatalf("%s: %q looks up to %d (%t), want %d", label, w, back, ok, id)
					}
				}
				rawPairsEqual(t, label+": main", got.Main, want.Main)
				rawPairsEqual(t, label+": staged", got.staged, want.staged)
				if rng.Intn(2) == 0 {
					gs, ws := got.Materialize(), want.Materialize()
					if gs.TotalTriples != ws.TotalTriples || gs.InputTriples != ws.InputTriples {
						t.Fatalf("%s: materialized %+v, want %+v", label, gs, ws)
					}
					rawPairsEqual(t, label+": main after materialize", got.Main, want.Main)
				}
				// The marks ride a promotion's rewrite like the pairs do.
				if got.staged != got.Main && !slices.Equal(assertedTriples(got), assertedTriples(want)) {
					t.Fatalf("%s: asserted %v, want %v", label, assertedTriples(got), assertedTriples(want))
				}
			}
		}
	}
}

// TestInternSplitsByLength: the number of ranges follows the batch
// length and the Parallel option, nothing else.
func TestInternSplitsByLength(t *testing.T) {
	batch := numberingBatch(rand.New(rand.NewSource(1)), 50, 4*minRangeTriples)
	if n := len(New(Options{}).Intern(batch)); n != 1 {
		t.Errorf("sequential engine cut %d ranges, want 1", n)
	}
	par := New(Options{Parallel: true})
	if n := len(par.Intern(batch[:minRangeTriples-1])); n != 1 {
		t.Errorf("small batch cut into %d ranges, want 1", n)
	}
	total := 0
	for _, rg := range par.Intern(batch) {
		total += rg.Len()
	}
	if total != len(batch) {
		t.Errorf("ranges hold %d triples, want %d", total, len(batch))
	}
	back := par.Intern(batch)[0].AppendTriples(nil)
	if !slices.Equal(back, batch[:len(back)]) {
		t.Error("AppendTriples does not reproduce the input run")
	}
}

package reasoner

import (
	"fmt"
	"testing"

	"inferray/internal/rdf"
	"inferray/internal/rules"
	"inferray/internal/store"
)

// TestThetaClosesInRound: the θ step closes a θ table in the round that
// touched it. The round's own delta — the one the next rule selection
// reads — already holds the closure's pairs: of a subClassOf edge added
// with the encoding off, of a property whose owl:TransitiveProperty
// marker arrives alone, and of owl:sameAs links PRP-IFP derives, which
// come back symmetric and transitive. The pre-loop stage is the same step
// with delta == Main, so the first pass finds nothing left to close.
func TestThetaClosesInRound(t *testing.T) {
	tr := func(s, p, o string) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }
	// stagedRound merges a batch the way Materialize seeds a later batch
	// and returns that round's delta.
	stagedRound := func(e *Engine, batch ...rdf.Triple) *store.Store {
		e.LoadTriples(batch)
		staged := e.staged
		e.staged = nil
		delta := e.mergeRound(true, staged).delta
		return delta
	}
	expect := func(t *testing.T, e *Engine, delta *store.Store, want ...rdf.Triple) {
		t.Helper()
		for _, w := range want {
			pidx, s, o, ok := e.resolve(w)
			if !ok || !delta.Contains(pidx, s, o) {
				t.Errorf("the round's delta lacks %s %s %s", w.S, w.P, w.O)
			}
		}
	}
	sco, typ, same := rdf.RDFSSubClassOf, rdf.RDFType, rdf.OWLSameAs

	t.Run("first-pass", func(t *testing.T) {
		e := New(Options{Fragment: rules.RDFSDefault})
		e.LoadTriples([]rdf.Triple{tr("<a>", sco, "<b>"), tr("<b>", sco, "<c>"), tr("<c>", sco, "<d>")})
		e.Main.Normalize()
		e.closeTheta(e.Main) // the pre-loop stage
		expect(t, e, e.Main, tr("<a>", sco, "<c>"), tr("<a>", sco, "<d>"), tr("<b>", sco, "<d>"))
		size := e.Main.Size()
		e.closeTheta(e.Main) // the first pass: delta aliases main
		if got := e.Main.Size(); got != size {
			t.Errorf("the first pass re-closed θ tables: size %d, want %d", got, size)
		}
	})

	t.Run("subClassOf", func(t *testing.T) {
		e := New(Options{Fragment: rules.RDFSDefault})
		e.LoadTriples([]rdf.Triple{tr("<a>", sco, "<b>"), tr("<b>", sco, "<c>")})
		e.Materialize()
		delta := stagedRound(e, tr("<c>", sco, "<d>"))
		expect(t, e, delta, tr("<a>", sco, "<d>"), tr("<b>", sco, "<d>"))
	})

	t.Run("transitive-marker", func(t *testing.T) {
		e := New(Options{Fragment: rules.RDFSPlus})
		e.LoadTriples([]rdf.Triple{tr("<x>", "<p>", "<y>"), tr("<y>", "<p>", "<z>")})
		e.Materialize()
		delta := stagedRound(e, tr("<p>", typ, rdf.OWLTransitiveProperty))
		expect(t, e, delta, tr("<x>", "<p>", "<z>"))
	})

	t.Run("sameAs", func(t *testing.T) {
		e := New(Options{Fragment: rules.RDFSPlus})
		e.LoadTriples([]rdf.Triple{
			tr("<x1>", "<mail>", "<m>"), tr("<x2>", "<mail>", "<m>"), tr("<x3>", "<mail>", "<m>"),
		})
		e.Materialize()
		// One fixpoint round over the marker: PRP-IFP links the three
		// subjects pairwise along the object run, and the round's merge
		// closes the links.
		outs, _ := e.applyRules(stagedRound(e, tr("<mail>", typ, rdf.OWLInverseFunctionalProperty)))
		delta := e.mergeRound(false, outs...).delta
		var want []rdf.Triple
		for _, a := range []string{"<x1>", "<x2>", "<x3>"} {
			for _, b := range []string{"<x1>", "<x2>", "<x3>"} {
				want = append(want, tr(a, same, b))
			}
		}
		expect(t, e, delta, want...)
	})
}

// TestThetaTransitiveRDFType: with rdf:type itself declared transitive,
// closing the type table declares <q> transitive through <M>. The θ step
// must then close <q> too, and overdeletion must wipe <q> once the wiped
// type table takes its marker away. Every cut of the input into a first
// and a second batch, then every single retraction, is judged by the
// oracle.
func TestThetaTransitiveRDFType(t *testing.T) {
	tr := func(s, p, o string) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }
	typ, trans := rdf.RDFType, rdf.OWLTransitiveProperty
	in := []rdf.Triple{
		tr(typ, typ, trans),
		tr("<q>", typ, "<M>"), tr("<M>", typ, trans),
		tr("<a>", "<q>", "<b>"), tr("<b>", "<q>", "<c>"), tr("<c>", "<q>", "<d>"),
		tr("<x>", rdf.OWLSameAs, "<y>"), tr("<y>", rdf.OWLSameAs, "<z>"),
	}
	for _, encoding := range []bool{false, true} {
		for cut := range len(in) + 1 {
			opts := Options{Fragment: rules.RDFSPlus, HierarchyEncoding: encoding}
			e := New(opts)
			e.LoadTriples(in[:cut])
			e.Materialize()
			e.LoadTriples(in[cut:])
			e.Materialize()
			label := fmt.Sprintf("encoding=%t cut=%d", encoding, cut)
			checkAgainstOracle(t, e, opts, label)
			for i := range in {
				if _, err := e.Retract(in[i : i+1]); err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, e, opts, fmt.Sprintf("%s, retracted %d", label, i))
			}
		}
	}
}

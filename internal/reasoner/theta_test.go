package reasoner

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"inferray/internal/closure"
	"inferray/internal/dictionary"
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
// must then close <q> too, and overdeletion must doom the whole of <q>
// once the overdeleted type pairs take its marker away. Every cut of the input into a first
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

// TestThetaLocalMatchesWhole: a write closes and overdeletes only the θ
// pairs its change can reach (thetaPairs), and that is enough. Over
// random θ tables — an owl:TransitiveProperty table, subClassOf with the
// encoding off, and owl:sameAs — with cycles, self-pairs and one node
// that gains many links, a random insert closed by its merge round must
// leave closure.Close of the union, and a random delete, overdeleted,
// split and re-closed as Retract does (thetaDelete), must leave what
// wiping the whole table and closing its surviving asserted pairs leaves.
// Both hold when the insert declares the owl:TransitiveProperty marker
// and when the delete retracts it.
func TestThetaLocalMatchesWhole(t *testing.T) {
	tr := func(s, p, o string) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }
	node := func(i int) string { return fmt.Sprintf("<n%d>", i) }
	marker := tr("<p>", rdf.RDFType, rdf.OWLTransitiveProperty)
	for seed := range 150 {
		rng := rand.New(rand.NewSource(int64(seed)))
		prop := []string{"<p>", rdf.RDFSSubClassOf, rdf.OWLSameAs}[seed%3]
		// Marker cases, on <p> only: 1 declares it with the insert, 2
		// retracts it with the delete.
		markerCase := 0
		if prop == "<p>" {
			markerCase = seed / 3 % 3
		}
		n := 4 + rng.Intn(13)
		link := func() rdf.Triple {
			a := rng.Intn(n)
			if rng.Intn(5) == 0 {
				return tr(node(a), prop, node(a))
			}
			return tr(node(a), prop, node(rng.Intn(n)))
		}
		var base, ins []rdf.Triple
		for range 1 + rng.Intn(2*n) {
			base = append(base, link())
		}
		for range 1 + rng.Intn(4) {
			ins = append(ins, link())
		}
		if rng.Intn(2) == 0 { // a hub gains links both ways
			hub := node(rng.Intn(n))
			for range n/2 + rng.Intn(n) {
				if other := node(rng.Intn(n)); rng.Intn(2) == 0 {
					ins = append(ins, tr(hub, prop, other))
				} else {
					ins = append(ins, tr(other, prop, hub))
				}
			}
		}
		label := fmt.Sprintf("seed %d %s marker case %d", seed, prop, markerCase)
		e := New(Options{Fragment: rules.RDFSPlus})
		if prop == "<p>" && markerCase != 1 {
			base = append(base, marker)
		}
		e.LoadTriples(base)
		e.Materialize()
		id, ok := e.Dict.Lookup(prop)
		if !ok {
			t.Fatalf("%s: %s is not in the dictionary", label, prop)
		}
		pidx := dictionary.PropIndex(id)
		if markerCase == 1 {
			ins = append(ins, marker)
		}
		e.LoadTriples(ins)
		staged := e.staged
		e.staged = nil
		e.mergeRound(true, staged)
		asserted := slices.Concat(base, ins)
		checkThetaTable(t, e, pidx, asserted, true, label+", after the insert")

		var del []rdf.Triple
		for _, i := range rng.Perm(len(asserted))[:1+rng.Intn(3)] {
			if asserted[i] != marker && !slices.Contains(del, asserted[i]) {
				del = append(del, asserted[i])
			}
		}
		if markerCase == 2 {
			del = append(del, marker)
		}
		thetaDelete(t, e, del)
		kept := slices.DeleteFunc(asserted, func(a rdf.Triple) bool { return slices.Contains(del, a) })
		checkThetaTable(t, e, pidx, kept, markerCase != 2, label+", after the delete")
		if err := e.CheckCarried(); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
}

// thetaDelete runs the θ half of Retract: unmark the batch, overdelete,
// delete the overdeleted pairs that carry no mark, and close what their
// removal opened. It stops before the rederivation pass, whose rules
// (EQ-REP on sameAs links) could restore what the θ step missed.
func thetaDelete(t *testing.T, e *Engine, batch []rdf.Triple) {
	t.Helper()
	del, doomed := store.New(e.Main.NumSlots()), store.New(e.Main.NumSlots())
	for _, b := range batch {
		pidx, s, o, ok := e.resolve(b)
		if !ok || !e.Main.Table(pidx).Unmark(s, o) {
			t.Fatalf("%s %s %s is not asserted", b.S, b.P, b.O)
		}
		del.Add(pidx, s, o)
	}
	del.Normalize()
	var st RetractStats
	over, _ := e.overdelete(del, &st)
	over.ForEachTable(func(pidx int, ot *store.Table) bool {
		mt, op := e.Main.Table(pidx), ot.Pairs()
		mt.Locate(op, func(i, at int) {
			if !mt.Marked(at) {
				doomed.Add(pidx, op[2*i], op[2*i+1])
			}
		})
		return true
	})
	doomed.Normalize()
	e.Main.Delete(doomed)
	e.closeTheta(doomed)
}

// checkThetaTable compares Main's table pidx with the asserted triples of
// that property, closed (closure.Close, owl:sameAs as an undirected graph)
// when closed is true.
func checkThetaTable(t *testing.T, e *Engine, pidx int, asserted []rdf.Triple, closed bool, label string) {
	t.Helper()
	var pairs []uint64
	for _, a := range asserted {
		if p, s, o, ok := e.resolve(a); ok && p == pidx {
			pairs = append(pairs, s, o)
			if pidx == e.V.SameAs {
				pairs = append(pairs, o, s)
			}
		}
	}
	if closed {
		pairs = closure.Close(pairs)
	}
	var want store.Table
	want.AppendPairs(pairs)
	want.Normalize()
	var got []uint64
	if mt := e.Main.Table(pidx); mt != nil {
		got = mt.Pairs()
	}
	if !slices.Equal(got, want.Pairs()) {
		t.Errorf("%s: the table holds %d pairs, want %d\n got %v\nwant %v", label, len(got)/2, want.Size(), got, want.Pairs())
	}
}

// TestThetaNeighbourhoodExpandsEachEndpointOnce: a change whose pairs
// share one endpoint expands it once. One subject of an
// owl:TransitiveProperty table gains as many links as it had; expanding
// it once per link would read its run, the whole table, once per link.
// The bytes thetaPairs allocates stay within a few times the table's.
func TestThetaNeighbourhoodExpandsEachEndpointOnce(t *testing.T) {
	const links = 512
	batch := func(prefix string) []rdf.Triple {
		var b []rdf.Triple
		for i := range links {
			b = append(b, rdf.Triple{S: "<hub>", P: "<p>", O: fmt.Sprintf("<%s%d>", prefix, i)})
		}
		return b
	}
	e := New(Options{Fragment: rules.RDFSPlus})
	e.LoadTriples(append(batch("a"), rdf.Triple{S: "<p>", P: rdf.RDFType, O: rdf.OWLTransitiveProperty}))
	e.Materialize()
	e.LoadTriples(batch("b"))
	staged := e.staged
	e.staged = nil
	delta := store.MergeRound(e.Main, false, true, staged) // merged, not yet closed
	pidx, _, _, _ := e.resolve(rdf.Triple{S: "<hub>", P: "<p>", O: "<b0>"})
	tableBytes := 16 * e.Main.Table(pidx).Size()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	aff := e.thetaPairs(delta)
	runtime.ReadMemStats(&after)
	if got := aff.Table(pidx).Size(); got != 2*links {
		t.Fatalf("thetaPairs returned %d pairs of the hub's table, want %d", got, 2*links)
	}
	if bytes := int(after.TotalAlloc - before.TotalAlloc); bytes > 16*tableBytes {
		t.Errorf("thetaPairs allocated %d bytes for a %d-byte table: an endpoint was expanded more than once", bytes, tableBytes)
	}
}

// TestOverdeleteExpandsThetaPairsItDooms: overdeletion takes the θ pairs
// its frontier can reach on every round, those of θ pairs it doomed the
// round before included. Deleting ⟨g p d⟩ dooms ⟨U p W⟩, a pair among the
// terms one step from g and d; the delete also takes away ⟨U p W⟩'s only
// support, which the rules reach a round later through ⟨U q W⟩. The
// sibling ⟨d2 p W⟩ holds only through ⟨U p W⟩, and only the
// neighbourhood of ⟨U p W⟩ itself names d2.
func TestOverdeleteExpandsThetaPairsItDooms(t *testing.T) {
	tr := func(s, p, o string) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }
	in := []rdf.Triple{
		tr("<p>", rdf.RDFType, rdf.OWLTransitiveProperty),
		tr("<r>", rdf.OWLInverseOf, "<q>"), tr("<q>", rdf.RDFSSubPropertyOf, "<p>"),
		tr("<g>", "<p>", "<d>"), tr("<d>", "<p>", "<U>"), tr("<d2>", "<p>", "<U>"),
		tr("<W>", "<r>", "<U>"),
	}
	for _, encoding := range []bool{false, true} {
		opts := Options{Fragment: rules.RDFSPlus, HierarchyEncoding: encoding}
		e := New(opts)
		e.LoadTriples(in)
		e.Materialize()
		if _, err := e.Retract([]rdf.Triple{in[3], in[6]}); err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, e, opts, fmt.Sprintf("encoding=%t", encoding))
	}
}

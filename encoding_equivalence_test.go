package inferray_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"inferray"
)

// The hierarchy interval encoding (DESIGN.md §10) must be invisible.
// The datasets below are chosen to hit its edge cases: transitive
// chains, diamonds, subsumption cycles, equivalences and
// guard-tripping meta-vocabulary. The equivalence tests run each as a
// script of the write-path conformance harness (write_path_test.go)
// under every fragment, encoding on and off: after every op the visible
// closure must equal the independent oracle's, so the encoded and the
// fully materialized engine agree through it. The remaining tests pin
// the guard fallback and the reduced image.

const eqTaxonomy = `
<Dog> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <Mammal> .
<Cat> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <Mammal> .
<Mammal> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <Animal> .
<Bird> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <Animal> .
<Animal> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <LivingThing> .
<rex> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Dog> .
<tweety> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Bird> .
<hasPet> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <knows> .
<knows> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <relatedTo> .
<alice> <hasPet> <rex> .
`

// eqDiamond adds a diamond (D ⊑ B, D ⊑ C, B ⊑ A, C ⊑ A) plus a
// subsumption cycle X ⊑ Y ⊑ X with instances on both.
const eqDiamond = `
<D> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <B> .
<D> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <C> .
<B> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <A> .
<C> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <A> .
<X> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <Y> .
<Y> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <X> .
<d1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <D> .
<x1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <X> .
`

// eqSchema exercises domain/range against the virtual hierarchy plus
// owl equivalences (RDFS-Plus fragments).
const eqSchema = `
<teaches> <http://www.w3.org/2000/01/rdf-schema#domain> <Teacher> .
<teaches> <http://www.w3.org/2000/01/rdf-schema#range> <Course> .
<Teacher> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <Person> .
<lecturer> <http://www.w3.org/2002/07/owl#equivalentClass> <Teacher> .
<instructs> <http://www.w3.org/2002/07/owl#equivalentProperty> <teaches> .
<bob> <instructs> <cs101> .
`

// eqGuardTrip subclasses owl:TransitiveProperty — meta-vocabulary the
// interval guards must refuse, forcing the transparent fallback to full
// materialization.
const eqGuardTrip = `
<MyTransitive> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://www.w3.org/2002/07/owl#TransitiveProperty> .
<partOf> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <MyTransitive> .
<a> <partOf> <b> .
<b> <partOf> <c> .
<Dog> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <Animal> .
<rex> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Dog> .
`

// eqSameAs mixes sameAs identities with hierarchy members (RDFS-Plus
// guard G3 territory: sameAs endpoints that are hierarchy nodes).
const eqSameAs = `
<Dog> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <Animal> .
<Hound> <http://www.w3.org/2002/07/owl#sameAs> <Dog> .
<rex> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Hound> .
<fido> <http://www.w3.org/2002/07/owl#sameAs> <rex> .
`

var eqFragments = []struct {
	name string
	f    inferray.Fragment
}{
	{"rho-df", inferray.RhoDF},
	{"rdfs-default", inferray.RDFSDefault},
	{"rdfs-full", inferray.RDFSFull},
	{"rdfs-plus", inferray.RDFSPlus},
	{"rdfs-plus-full", inferray.RDFSPlusFull},
}

var eqDatasets = []struct {
	name string
	nt   string
}{
	{"taxonomy", eqTaxonomy},
	{"diamond-cycle", eqDiamond},
	{"schema", eqSchema},
	{"guard-trip", eqGuardTrip},
	{"sameas", eqSameAs},
}

// closureLines materializes nt under the fragment with the encoding on
// or off and returns the sorted WriteNTriples lines plus the reasoner.
func closureLines(t *testing.T, f inferray.Fragment, nt string, encoded bool) ([]string, *inferray.Reasoner) {
	t.Helper()
	r := inferray.New(inferray.WithFragment(f), inferray.WithHierarchyEncoding(encoded))
	if err := r.LoadNTriples(strings.NewReader(nt)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	sort.Strings(lines)
	return lines, r
}

func diffLines(t *testing.T, on, off []string) {
	t.Helper()
	seen := make(map[string]int, len(off))
	for _, l := range off {
		seen[l]++
	}
	for _, l := range on {
		seen[l]--
	}
	for l, n := range seen {
		switch {
		case n > 0:
			t.Errorf("missing with encoding on: %s", l)
		case n < 0:
			t.Errorf("extra with encoding on: %s", l)
		}
	}
}

// eqDeltas are staged after an edge dataset: a fresh instance of an
// encoded class, a new top class plus an edge that is already virtual,
// and a subproperty with an instance.
var eqDeltas = []string{
	"<rex2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Dog> .\n",
	"<LivingThing> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <Entity> .\n" +
		"<Dog> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <Animal> .\n",
	"<owns> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <hasPet> .\n" +
		"<carol> <owns> <tweety> .\n",
}

// edgeBase starts a conformance script on one of the edge datasets:
// load it and check the guards.
func edgeBase(t *testing.T, cfg scriptConfig, name, nt string) *conformance {
	w := newConformance(t, cfg)
	w.run('l', func() { w.load(nt) })
	if name == "guard-trip" && w.leader.HierarchyEncoded() {
		t.Fatal("meta-vocabulary subclassing must trip the encoding guards")
	}
	return w
}

// runEdgeDeltas applies the deltas to a loaded edge dataset, queries,
// and retracts the deltas again in reverse order.
func runEdgeDeltas(t *testing.T, w *conformance, name string) {
	for _, d := range eqDeltas {
		w.run('l', func() { w.load(d) })
	}
	w.run('q', w.query)
	if name == "guard-trip" && w.leader.HierarchyEncoded() {
		t.Fatal("meta-vocabulary subclassing must trip the encoding guards")
	}
	for i := len(eqDeltas) - 1; i >= 0; i-- {
		w.run('d', func() { w.deleteData(nil, parseBlock(t, eqDeltas[i])) })
	}
	w.reopen()
}

// TestEncodingClosureEquivalence: for all five fragments and every edge
// dataset, the closure of the loaded dataset and the answers of the
// Query op equal the oracle's with the encoding on and off, and a
// reopened copy holds the same closure.
func TestEncodingClosureEquivalence(t *testing.T) {
	for _, fr := range eqFragments {
		for _, ds := range eqDatasets {
			t.Run(fr.name+"/"+ds.name, func(t *testing.T) {
				for _, encoding := range []bool{true, false} {
					cfg := scriptConfig{frag: fr.f, encoding: encoding, parallel: encoding}
					t.Run(fmt.Sprintf("encoding=%v", encoding), func(t *testing.T) {
						t.Parallel()
						w := edgeBase(t, cfg, ds.name, ds.nt)
						w.run('q', w.query)
						w.reopen()
					})
				}
			})
		}
	}
}

// TestEncodingIncrementalEquivalence: deltas staged after the first
// materialization of each edge dataset — including new hierarchy edges
// that subsume already virtual pairs and fresh instances of encoded
// classes — and their retraction keep the closure equal to the
// oracle's, with the encoding on and off.
func TestEncodingIncrementalEquivalence(t *testing.T) {
	for _, fr := range eqFragments {
		t.Run(fr.name, func(t *testing.T) {
			for _, ds := range eqDatasets {
				for _, encoding := range []bool{true, false} {
					cfg := scriptConfig{frag: fr.f, encoding: encoding, parallel: encoding}
					t.Run(fmt.Sprintf("%s/encoding=%v", ds.name, encoding), func(t *testing.T) {
						t.Parallel()
						runEdgeDeltas(t, edgeBase(t, cfg, ds.name, ds.nt), ds.name)
					})
				}
			}
		})
	}
}

// TestEncodingQueriesEquivalent: Select and Ask answers over /query
// equal a naive evaluation over the oracle closure with the encoding
// on and off, covering the virtual-table query paths (type lookup by
// class, subClassOf enumeration, subproperty instance joins).
func TestEncodingQueriesEquivalent(t *testing.T) {
	for _, encoding := range []bool{true, false} {
		w := newConformance(t, scriptConfig{frag: inferray.RDFSDefault, encoding: encoding})
		w.run('l', func() { w.load(eqTaxonomy) })
		if encoding && !w.leader.HierarchyEncoded() {
			t.Fatal("taxonomy dataset should keep the encoding active")
		}
		w.run('q', w.query)
	}
}

// TestEncodingGuardFallback: the guard-tripping dataset must disable
// the encoding (bypass) while staying correct, including the derived
// transitive chain through the user-defined transitive property.
func TestEncodingGuardFallback(t *testing.T) {
	_, r := closureLines(t, inferray.RDFSPlusFull, eqGuardTrip, true)
	if r.HierarchyEncoded() {
		t.Fatal("meta-vocabulary subclassing must trip the encoding guards")
	}
	if r.Size() != r.StoredSize() {
		t.Fatal("bypassed engine still reports virtual triples")
	}
	if !r.Holds("<a>", "<partOf>", "<c>") {
		t.Error("transitive chain lost under guard bypass")
	}
	if !r.Holds("<rex>", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>", "<Animal>") {
		t.Error("subsumption lost under guard bypass")
	}
}

// TestEncodingSnapshotRoundTrip: a reduced-closure image
// restores into an identical visible closure, both into an
// encoding-enabled engine (stays reduced) and an encoding-disabled one
// (expands on load).
func TestEncodingSnapshotRoundTrip(t *testing.T) {
	on, r := closureLines(t, inferray.RDFSDefault, eqTaxonomy, true)
	if !r.HierarchyEncoded() {
		t.Fatal("fixture should encode")
	}
	var snap bytes.Buffer
	if err := r.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	restored, err := inferray.LoadSnapshot(bytes.NewReader(snap.Bytes()),
		inferray.WithFragment(inferray.RDFSDefault))
	if err != nil {
		t.Fatal(err)
	}
	if !restored.HierarchyEncoded() {
		t.Fatal("restore into an enabled engine should stay encoded")
	}
	if restored.StoredSize() >= restored.Size() {
		t.Fatalf("restored closure not reduced: stored=%d visible=%d",
			restored.StoredSize(), restored.Size())
	}
	var buf bytes.Buffer
	if err := restored.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	sort.Strings(got)
	diffLines(t, got, on)

	expanded, err := inferray.LoadSnapshot(bytes.NewReader(snap.Bytes()),
		inferray.WithFragment(inferray.RDFSDefault), inferray.WithHierarchyEncoding(false))
	if err != nil {
		t.Fatal(err)
	}
	if expanded.HierarchyEncoded() {
		t.Fatal("encoding-disabled engine reports encoded after load")
	}
	if expanded.Size() != expanded.StoredSize() || expanded.Size() != r.Size() {
		t.Fatalf("expanded restore wrong: size=%d stored=%d want %d",
			expanded.Size(), expanded.StoredSize(), r.Size())
	}
	buf.Reset()
	if err := expanded.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	got = strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	sort.Strings(got)
	diffLines(t, got, on)
}

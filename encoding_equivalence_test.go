package inferray_test

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"inferray"
)

// The hierarchy interval encoding (DESIGN.md §10) must be invisible:
// for every fragment and every dataset, the reasoner's externally
// observable closure — WriteNTriples output, Holds, Select, Ask — has
// to match the fully materialized engine byte for byte. These tests
// drive both engines over datasets chosen to hit the encoding's edge
// cases: transitive chains, diamonds, subsumption cycles, equivalences,
// guard-tripping meta-vocabulary, and incremental deltas.

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

// TestEncodingClosureEquivalence: for all five fragments and every edge
// dataset, the visible closure under the hierarchy encoding is
// line-identical to the fully materialized one.
func TestEncodingClosureEquivalence(t *testing.T) {
	for _, fr := range eqFragments {
		for _, ds := range eqDatasets {
			t.Run(fr.name+"/"+ds.name, func(t *testing.T) {
				on, rOn := closureLines(t, fr.f, ds.nt, true)
				off, rOff := closureLines(t, fr.f, ds.nt, false)
				if len(on) != len(off) {
					t.Errorf("closure sizes differ: %d encoded vs %d materialized", len(on), len(off))
				}
				diffLines(t, on, off)
				if rOn.Size() != rOff.Size() {
					t.Errorf("Size() differs: %d vs %d", rOn.Size(), rOff.Size())
				}
				if rOff.HierarchyEncoded() {
					t.Error("encoding-off engine reports itself encoded")
				}
			})
		}
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

// TestEncodingQueriesEquivalent: Select and Ask answers agree between
// the two modes, covering the virtual-table query paths (type lookup
// by class, subClassOf enumeration, subproperty instance joins).
func TestEncodingQueriesEquivalent(t *testing.T) {
	queries := []string{
		`SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Animal> }`,
		`SELECT ?c WHERE { <Dog> <http://www.w3.org/2000/01/rdf-schema#subClassOf> ?c }`,
		`SELECT ?s ?o WHERE { ?s <http://www.w3.org/2000/01/rdf-schema#subClassOf> ?o }`,
		`SELECT ?x ?y WHERE { ?x <relatedTo> ?y }`,
		`SELECT ?x ?t WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t }`,
	}
	asks := []string{
		`ASK { <rex> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <LivingThing> }`,
		`ASK { <alice> <relatedTo> <rex> }`,
		`ASK { <rex> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Bird> }`,
	}
	_, rOn := closureLines(t, inferray.RDFSDefault, eqTaxonomy, true)
	_, rOff := closureLines(t, inferray.RDFSDefault, eqTaxonomy, false)
	if !rOn.HierarchyEncoded() {
		t.Fatal("taxonomy dataset should keep the encoding active")
	}
	for _, q := range queries {
		a, err := rOn.Select(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		b, err := rOff.Select(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(a) != len(b) {
			t.Errorf("%s: %d rows encoded vs %d materialized", q, len(a), len(b))
			continue
		}
		key := func(rows []map[string]string) []string {
			ks := make([]string, len(rows))
			for i, row := range rows {
				var parts []string
				for k, v := range row {
					parts = append(parts, k+"="+v)
				}
				sort.Strings(parts)
				ks[i] = strings.Join(parts, "|")
			}
			sort.Strings(ks)
			return ks
		}
		ka, kb := key(a), key(b)
		for i := range ka {
			if ka[i] != kb[i] {
				t.Errorf("%s: row %d differs: %s vs %s", q, i, ka[i], kb[i])
			}
		}
	}
	for _, q := range asks {
		a, err := rOn.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rOff.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: %v encoded vs %v materialized", q, a, b)
		}
	}
}

// TestEncodingIncrementalEquivalence: deltas staged after the first
// materialization — including new hierarchy edges that subsume already
// virtual pairs and fresh instances of encoded classes — keep the two
// modes identical.
func TestEncodingIncrementalEquivalence(t *testing.T) {
	deltas := []string{
		"<rex2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Dog> .\n",
		"<LivingThing> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <Entity> .\n" +
			"<Dog> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <Animal> .\n", // already virtual
		"<owns> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <hasPet> .\n" +
			"<carol> <owns> <tweety> .\n",
	}
	for _, fr := range eqFragments {
		t.Run(fr.name, func(t *testing.T) {
			build := func(enc bool) *inferray.Reasoner {
				r := inferray.New(inferray.WithFragment(fr.f), inferray.WithHierarchyEncoding(enc))
				if err := r.LoadNTriples(strings.NewReader(eqTaxonomy)); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Materialize(); err != nil {
					t.Fatal(err)
				}
				return r
			}
			rOn, rOff := build(true), build(false)
			for i, d := range deltas {
				for _, r := range []*inferray.Reasoner{rOn, rOff} {
					if err := r.LoadNTriples(strings.NewReader(d)); err != nil {
						t.Fatal(err)
					}
					if _, err := r.Materialize(); err != nil {
						t.Fatal(err)
					}
				}
				if rOn.Size() != rOff.Size() {
					t.Fatalf("after delta %d: Size %d encoded vs %d materialized", i, rOn.Size(), rOff.Size())
				}
				// Compaction visits only the runs a round touched; that is
				// sound only while a full sweep would find nothing more.
				if n := rOn.ShadowedTypePairs(); n != 0 {
					t.Fatalf("after delta %d: %d stored type pairs are shadowed; the table must stay compact", i, n)
				}
				var bufOn, bufOff bytes.Buffer
				if err := rOn.WriteNTriples(&bufOn); err != nil {
					t.Fatal(err)
				}
				if err := rOff.WriteNTriples(&bufOff); err != nil {
					t.Fatal(err)
				}
				on := strings.Split(strings.TrimRight(bufOn.String(), "\n"), "\n")
				off := strings.Split(strings.TrimRight(bufOff.String(), "\n"), "\n")
				sort.Strings(on)
				sort.Strings(off)
				diffLines(t, on, off)
			}
		})
	}
}

// TestEncodingSnapshotRoundTrip: a reduced-closure snapshot (stream v3)
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

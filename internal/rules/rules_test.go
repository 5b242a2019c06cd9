package rules

import (
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/store"
)

// testHarness wires a dictionary, vocab, and stores for rule-level tests.
type testHarness struct {
	d    *dictionary.Dictionary
	v    *Vocab
	main *store.Store
	set  store.TermSet // the rules' term set, as the engine keeps one per rule
}

func newHarness() *testHarness {
	d := dictionary.NewWithVocabulary(rdf.VocabularyProperties, rdf.VocabularyResources)
	v := ResolveVocab(d)
	return &testHarness{d: d, v: v, main: store.New(d.NumProperties())}
}

func (h *testHarness) prop(term string) int {
	return dictionary.PropIndex(h.d.EncodeProperty(term))
}

func (h *testHarness) res(term string) uint64 { return h.d.EncodeResource(term) }

func (h *testHarness) add(pidx int, s, o uint64) {
	h.main.Grow(h.d.NumProperties())
	h.main.Add(pidx, s, o)
}

// rule returns the implementation table5 holds under name.
func rule(name string) Rule { return Rule{Name: name, Apply: table5[name].apply} }

// run applies a single rule in first-pass mode (delta = main) and
// returns the rule's raw output store.
func (h *testHarness) run(r Rule) *store.Store {
	h.main.Grow(h.d.NumProperties())
	h.main.Normalize()
	out := store.New(h.main.NumSlots())
	r.Apply(h.context(h.main, out))
	out.Normalize()
	return out
}

// context is the rule context over the harness's main store, with delta
// as the previous round's delta (main itself for a first pass), handing
// out the harness's term set as the engine hands out a rule's.
func (h *testHarness) context(delta, out *store.Store) *Context {
	terms := func() *store.TermSet {
		h.set.Reset(h.d.IDRange())
		return &h.set
	}
	return &Context{Main: h.main, Delta: delta, Out: out, V: h.v, Terms: terms}
}

// TestCAXSCOPaperExample replays Figure 4: explicit triples
// ⟨human subClassOf mammal⟩, ⟨mammal subClassOf animal⟩, ⟨Bart type
// human⟩, ⟨Lisa type human⟩. One CAX-SCO application over the closed
// subClassOf table must infer that Bart and Lisa are mammals and animals.
func TestCAXSCOPaperExample(t *testing.T) {
	h := newHarness()
	human, mammal, animal := h.res("<human>"), h.res("<mammal>"), h.res("<animal>")
	bart, lisa := h.res("<Bart>"), h.res("<Lisa>")

	// The subClassOf table arrives already closed (§4.1), as in the
	// figure where the property table lists all three pairs.
	h.add(h.v.SubClassOf, human, mammal)
	h.add(h.v.SubClassOf, mammal, animal)
	h.add(h.v.SubClassOf, human, animal)
	h.add(h.v.Type, bart, human)
	h.add(h.v.Type, lisa, human)

	out := h.run(rule("CAX-SCO"))
	typeOut := out.Table(h.v.Type)
	if typeOut == nil {
		t.Fatal("no type inferences")
	}
	for _, want := range [][2]uint64{
		{bart, mammal}, {bart, animal}, {lisa, mammal}, {lisa, animal},
	} {
		if !typeOut.Contains(want[0], want[1]) {
			t.Errorf("missing inference (%d type %d)", want[0], want[1])
		}
	}
	if typeOut.Size() != 4 {
		t.Errorf("inferred %d type triples, want 4", typeOut.Size())
	}
}

func TestAlphaJoinObjectObject(t *testing.T) {
	// CAX-EQC1 joins equivalentClass on object with type on object.
	h := newHarness()
	c1, c2, x := h.res("<c1>"), h.res("<c2>"), h.res("<x>")
	h.add(h.v.EquivClass, c1, c2)
	h.add(h.v.Type, x, c2)
	out := h.run(rule("CAX-EQC1"))
	if !out.Table(h.v.Type).Contains(x, c1) {
		t.Fatal("CAX-EQC1 failed to type x as c1")
	}
}

func TestBetaEmitsBothOrientations(t *testing.T) {
	h := newHarness()
	a, b := h.res("<A>"), h.res("<B>")
	h.add(h.v.SubClassOf, a, b)
	h.add(h.v.SubClassOf, b, a)
	out := h.run(rule("SCM-EQC2"))
	eqc := out.Table(h.v.EquivClass)
	if eqc == nil || !eqc.Contains(a, b) || !eqc.Contains(b, a) {
		t.Fatal("SCM-EQC2 must derive equivalence in both orientations")
	}
}

func TestGammaDomainRange(t *testing.T) {
	h := newHarness()
	p := h.prop("<worksAt>")
	pid := dictionary.PropID(p)
	person, org := h.res("<Person>"), h.res("<Org>")
	alice, acme := h.res("<alice>"), h.res("<acme>")
	h.add(h.v.Domain, pid, person)
	h.add(h.v.Range, pid, org)
	h.add(p, alice, acme)

	out := h.run(rule("PRP-DOM"))
	if !out.Table(h.v.Type).Contains(alice, person) {
		t.Fatal("PRP-DOM failed")
	}
	out = h.run(rule("PRP-RNG"))
	if !out.Table(h.v.Type).Contains(acme, org) {
		t.Fatal("PRP-RNG failed")
	}
}

func TestGammaSkipsNonPropertySubjects(t *testing.T) {
	// A domain triple whose subject is a plain resource (never a
	// predicate) must not crash or derive anything.
	h := newHarness()
	bogus := h.res("<notAProperty>")
	h.add(h.v.Domain, bogus, h.res("<C>"))
	out := h.run(rule("PRP-DOM"))
	if out.Size() != 0 {
		t.Fatal("derivation from a non-property subject")
	}
}

func TestDeltaCopyAndReverse(t *testing.T) {
	h := newHarness()
	p1 := h.prop("<p1>")
	p2 := h.prop("<p2>")
	x, y := h.res("<x>"), h.res("<y>")
	h.add(h.v.InverseOf, dictionary.PropID(p1), dictionary.PropID(p2))
	h.add(p1, x, y)
	out := h.run(rule("PRP-INV1"))
	if !out.Table(p2).Contains(y, x) {
		t.Fatal("PRP-INV1 must reverse-copy p1 into p2")
	}

	h2 := newHarness()
	q1 := h2.prop("<q1>")
	q2 := h2.prop("<q2>")
	a, b := h2.res("<a>"), h2.res("<b>")
	h2.add(h2.v.EquivProp, dictionary.PropID(q1), dictionary.PropID(q2))
	h2.add(q2, a, b)
	out = h2.run(rule("PRP-EQP1"))
	if !out.Table(q1).Contains(a, b) {
		t.Fatal("PRP-EQP1 must copy q2 into q1")
	}
}

func TestSameAsSingleLoop(t *testing.T) {
	h := newHarness()
	p := h.prop("<knows>")
	a, b, c := h.res("<a>"), h.res("<b>"), h.res("<c>")
	h.add(h.v.SameAs, a, b)
	h.add(p, b, c) // b in subject position
	h.add(p, c, b) // b in object position
	out := h.run(rule("EQ-REP"))

	// EQ-SYM is the reasoner's θ step, not this rule's.
	if same := out.Table(h.v.SameAs); same != nil && same.Contains(b, a) {
		t.Error("EQ-REP emitted the reversed sameAs pair")
	}
	if !out.Table(p).Contains(a, c) {
		t.Error("EQ-REP-S missing")
	}
	if !out.Table(p).Contains(c, a) {
		t.Error("EQ-REP-O missing")
	}
}

func TestSameAsPropertyReplication(t *testing.T) {
	h := newHarness()
	p1 := h.prop("<p1>")
	p2 := h.prop("<p2>")
	x, y := h.res("<x>"), h.res("<y>")
	h.add(h.v.SameAs, dictionary.PropID(p1), dictionary.PropID(p2))
	h.add(p2, x, y)
	out := h.run(rule("EQ-REP"))
	if !out.Table(p1).Contains(x, y) {
		t.Fatal("EQ-REP-P must replicate p2's table under p1")
	}
}

func TestFunctionalPropertyChainLinks(t *testing.T) {
	h := newHarness()
	p := h.prop("<hasSSN>")
	x := h.res("<x>")
	y1, y2, y3 := h.res("<y1>"), h.res("<y2>"), h.res("<y3>")
	h.add(h.v.Type, dictionary.PropID(p), h.v.FunctionalProp)
	h.add(p, x, y1)
	h.add(p, x, y2)
	h.add(p, x, y3)
	out := h.run(rule("PRP-FP"))
	same := out.Table(h.v.SameAs)
	if same == nil || same.Size() < 2 {
		t.Fatal("PRP-FP must link the object run")
	}
	// Chain links suffice: the sameAs closure completes the class. Check
	// adjacency y1~y2 and y2~y3 (object order = id order here).
	if !same.Contains(y1, y2) || !same.Contains(y2, y3) {
		t.Fatal("PRP-FP missing chain links")
	}
}

func TestInverseFunctionalProperty(t *testing.T) {
	h := newHarness()
	p := h.prop("<email>")
	x1, x2 := h.res("<x1>"), h.res("<x2>")
	mail := h.res(`"a@b.c"`)
	h.add(h.v.Type, dictionary.PropID(p), h.v.InverseFunctionalProp)
	h.add(p, x1, mail)
	h.add(p, x2, mail)
	out := h.run(rule("PRP-IFP"))
	if !out.Table(h.v.SameAs).Contains(x1, x2) {
		t.Fatal("PRP-IFP must identify subjects sharing an object")
	}
}

func TestSymmetricProperty(t *testing.T) {
	h := newHarness()
	p := h.prop("<married>")
	a, b := h.res("<a>"), h.res("<b>")
	h.add(h.v.Type, dictionary.PropID(p), h.v.SymmetricProp)
	h.add(p, a, b)
	out := h.run(rule("PRP-SYMP"))
	if !out.Table(p).Contains(b, a) {
		t.Fatal("PRP-SYMP failed")
	}
}

func TestTrivialMarkerRules(t *testing.T) {
	h := newHarness()
	cls := h.res("<MyClass>")
	h.add(h.v.Type, cls, h.v.Class)
	out := h.run(rule("RDFS10"))
	if !out.Table(h.v.SubClassOf).Contains(cls, cls) {
		t.Fatal("RDFS10 failed")
	}
	out = h.run(rule("RDFS8"))
	if !out.Table(h.v.Type).Contains(cls, h.v.Resource) {
		t.Fatal("RDFS8 failed")
	}
}

func TestRDFS12UsesMemberPropertyID(t *testing.T) {
	h := newHarness()
	p := h.prop("<containerish>")
	h.add(h.v.Type, dictionary.PropID(p), h.v.ContainerMembership)
	out := h.run(rule("RDFS12"))
	if !out.Table(h.v.SubPropertyOf).Contains(dictionary.PropID(p), dictionary.PropID(h.v.Member)) {
		t.Fatal("RDFS12 must emit subPropertyOf rdfs:member")
	}
}

func TestRulesetsContainExpectedCounts(t *testing.T) {
	counts := map[Fragment]int{
		RhoDF:        6,
		RDFSDefault:  8,
		RDFSFull:     14, // default + 6 trivial
		RDFSPlus:     22,
		RDFSPlusFull: 25,
	}
	v := testVocab()
	for f, want := range counts {
		if got := len(Rules(f, v)); got != want {
			t.Errorf("%s: %d rules, want %d", f, got, want)
		}
	}
}

func TestParseFragment(t *testing.T) {
	for _, name := range []string{"rhodf", "rdfs-default", "rdfs-full", "rdfs-plus", "rdfs-plus-full"} {
		f, err := ParseFragment(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if f.String() != name {
			t.Errorf("%s: round trip gave %s", name, f)
		}
	}
	// Only the five printed names: the former aliases are refused too.
	for _, name := range []string{"owl-dl", "rho-df", "rdf", "rdfs_default", "default", "rdfs", "full", "rdfsplus", "plus"} {
		if _, err := ParseFragment(name); err == nil {
			t.Errorf("%q must not name a fragment", name)
		}
	}
}

func TestSpecsMatchRuleCount(t *testing.T) {
	// Specs also express the θ-class rules (SCM-SCO, SCM-SPO, EQ-SYM,
	// EQ-TRANS, PRP-TRP) the reasoner's θ step implements; sanity-check
	// the counts line up with that accounting.
	v := ResolveVocab(dictionary.NewWithVocabulary(rdf.VocabularyProperties, rdf.VocabularyResources))
	if n := len(Specs(RhoDF, v)); n != 8 {
		t.Errorf("rhodf specs = %d, want 8", n)
	}
	if n := len(Specs(RDFSPlus, v)); n != 29 {
		t.Errorf("rdfs-plus specs = %d, want 29", n)
	}
	for _, s := range Specs(RDFSPlusFull, v) {
		for _, pat := range append(append([]Pattern{}, s.Body...), s.Head...) {
			for _, term := range []Term{pat.S, pat.P, pat.O} {
				if term.IsVar && term.Var > 7 {
					t.Errorf("%s uses variable slot %d beyond binding capacity", s.Name, term.Var)
				}
			}
		}
	}
}

func TestMergeJoinCrossProduct(t *testing.T) {
	a := []uint64{1, 10, 2, 20, 2, 21, 3, 30}
	b := []uint64{2, 200, 2, 201, 4, 400}
	var got [][3]uint64
	mergeJoin(a, b, func(k, ap, bp uint64) {
		got = append(got, [3]uint64{k, ap, bp})
	})
	want := [][3]uint64{
		{2, 20, 200}, {2, 20, 201}, {2, 21, 200}, {2, 21, 201},
	}
	if len(got) != len(want) {
		t.Fatalf("join produced %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
		}
	}
}

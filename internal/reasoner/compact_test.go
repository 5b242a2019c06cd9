package reasoner

import (
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/rdf"
	"inferray/internal/rules"
	"inferray/internal/store"
)

// lookupID resolves a term that must already be in the dictionary.
func lookupID(t *testing.T, e *Engine, term string) uint64 {
	t.Helper()
	id, ok := e.Dict.Lookup(term)
	if !ok {
		t.Fatalf("term %s not in dictionary", term)
	}
	return id
}

// storedType reports whether ⟨s rdf:type o⟩ is physically stored (not
// merely visible through the interval index).
func storedType(t *testing.T, e *Engine, s, o string) bool {
	t.Helper()
	tt := e.Main.Table(e.V.Type)
	if tt == nil || tt.Empty() {
		return false
	}
	return tt.Contains(lookupID(t, e, s), lookupID(t, e, o))
}

// plantType stores ⟨s rdf:type o⟩ as a derivation — unmarked — through
// the store's merge, behind the engine's back: no compaction follows.
func plantType(t *testing.T, e *Engine, s, o string) {
	t.Helper()
	out := store.New(e.Main.NumSlots())
	out.Add(e.V.Type, lookupID(t, e, s), lookupID(t, e, o))
	store.MergeRound(e.Main, false, false, out)
}

// TestCompactTypeTable checks that subsumption-redundant rdf:type pairs
// derived by rules that do not consult the interval index (domain
// fallout here) are compacted away, that a redundant pair which was
// loaded — asserted — stays stored under its mark, and that the visible
// closure keeps every pair either way.
func TestCompactTypeTable(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSDefault, HierarchyEncoding: true})
	e.LoadTriples([]rdf.Triple{
		{S: "<Dog>", P: rdf.RDFSSubClassOf, O: "<Mammal>"},
		{S: "<Mammal>", P: rdf.RDFSSubClassOf, O: "<Animal>"},
		{S: "<walks>", P: rdf.RDFSDomain, O: "<Mammal>"},
		// ⟨x type Animal⟩ is redundant next to ⟨x type Dog⟩ but asserted;
		// the domain rule's ⟨x type Mammal⟩ fallout is redundant and derived.
		{S: "<x>", P: rdf.RDFType, O: "<Dog>"},
		{S: "<x>", P: rdf.RDFType, O: "<Animal>"},
		{S: "<x>", P: "<walks>", O: "<y>"},
		{S: "<z>", P: rdf.RDFType, O: "<Mammal>"},
	})
	e.Materialize()

	if e.HierView() == nil {
		t.Fatal("hierarchy encoding unexpectedly bypassed")
	}
	if !storedType(t, e, "<x>", "<Dog>") || !storedType(t, e, "<z>", "<Mammal>") {
		t.Error("minimal type pairs must stay stored")
	}
	if storedType(t, e, "<x>", "<Mammal>") {
		t.Error("derived ⟨x type Mammal⟩ still stored; should be compacted")
	}
	if !storedType(t, e, "<x>", "<Animal>") {
		t.Error("asserted ⟨x type Animal⟩ compacted away; a marked pair must stay")
	}
	if n := e.ShadowedTypePairs(); n != 0 {
		t.Errorf("%d unmarked shadowed pairs left stored", n)
	}
	for _, tr := range []rdf.Triple{
		{S: "<x>", P: rdf.RDFType, O: "<Dog>"},
		{S: "<x>", P: rdf.RDFType, O: "<Mammal>"},
		{S: "<x>", P: rdf.RDFType, O: "<Animal>"},
		{S: "<z>", P: rdf.RDFType, O: "<Animal>"},
	} {
		if !e.Contains(tr) {
			t.Errorf("visible closure lost: %v", tr)
		}
	}

	// Loading an already-compacted pair asserts it: absorbed (it leaves
	// the delta, so no rule fires and nothing livelocks), stored under
	// its mark from now on, visible as before.
	e.LoadTriples([]rdf.Triple{{S: "<x>", P: rdf.RDFType, O: "<Mammal>"}})
	if ms := e.Materialize(); ms.InputTriples != 0 || ms.Iterations != 0 {
		t.Errorf("a shadowed insert must leave the delta empty: %+v", ms)
	}
	if !storedType(t, e, "<x>", "<Mammal>") {
		t.Error("a loaded redundant pair must stay stored")
	}
	if !e.Contains(rdf.Triple{S: "<x>", P: rdf.RDFType, O: "<Mammal>"}) {
		t.Error("a loaded redundant pair must stay visible")
	}
}

// TestCompactTypeTableCycle checks the mutual-subsumption tiebreak: for
// classes in one subsumption cycle exactly one stored pair survives per
// subject (the smallest class id) and both memberships remain visible.
func TestCompactTypeTableCycle(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSDefault, HierarchyEncoding: true})
	e.LoadTriples([]rdf.Triple{
		{S: "<A>", P: rdf.RDFSSubClassOf, O: "<B>"},
		{S: "<B>", P: rdf.RDFSSubClassOf, O: "<A>"},
		// The memberships are derived (domain fallout): an asserted one
		// would stay stored whatever shadows it.
		{S: "<inA>", P: rdf.RDFSDomain, O: "<A>"},
		{S: "<inB>", P: rdf.RDFSDomain, O: "<B>"},
		{S: "<x>", P: "<inA>", O: "<o>"},
		{S: "<x>", P: "<inB>", O: "<o>"},
	})
	e.Materialize()

	if e.HierView() == nil {
		t.Fatal("hierarchy encoding unexpectedly bypassed")
	}
	a, b := storedType(t, e, "<x>", "<A>"), storedType(t, e, "<x>", "<B>")
	if a == b {
		t.Errorf("cycle tiebreak must keep exactly one of ⟨x type A⟩/⟨x type B⟩, got stored A=%v B=%v", a, b)
	}
	for _, o := range []string{"<A>", "<B>"} {
		if !e.Contains(rdf.Triple{S: "<x>", P: rdf.RDFType, O: o}) {
			t.Errorf("⟨x type %s⟩ must stay visible", o)
		}
	}

	// One run holding two cyclic components — {A,B} above {C,D,E} — their
	// common super, and a class outside the hierarchy: the lower cycle
	// shadows everything above it and keeps one representative of its
	// own, the outside class neither shadows nor is shadowed.
	e.LoadTriples([]rdf.Triple{
		{S: "<C>", P: rdf.RDFSSubClassOf, O: "<D>"},
		{S: "<D>", P: rdf.RDFSSubClassOf, O: "<E>"},
		{S: "<E>", P: rdf.RDFSSubClassOf, O: "<C>"},
		{S: "<D>", P: rdf.RDFSSubClassOf, O: "<A>"},
		{S: "<A>", P: rdf.RDFSSubClassOf, O: "<Top>"},
	})
	classes := []string{"<A>", "<B>", "<C>", "<D>", "<E>", "<Top>", "<Loose>"}
	for _, o := range classes {
		in := "<in" + o[1:]
		e.LoadTriples([]rdf.Triple{{S: in, P: rdf.RDFSDomain, O: o}, {S: "<y>", P: in, O: "<o>"}})
	}
	e.Materialize()
	if e.HierView() == nil {
		t.Fatal("hierarchy encoding unexpectedly bypassed")
	}
	lower := 0
	for _, o := range []string{"<C>", "<D>", "<E>"} {
		if storedType(t, e, "<y>", o) {
			lower++
		}
	}
	if lower != 1 {
		t.Errorf("the lower cycle must keep exactly one stored representative for y, got %d", lower)
	}
	for _, o := range []string{"<A>", "<B>", "<Top>"} {
		if storedType(t, e, "<y>", o) {
			t.Errorf("⟨y type %s⟩ still stored above a stored lower-cycle class", o)
		}
	}
	if !storedType(t, e, "<y>", "<Loose>") {
		t.Error("a class outside the hierarchy must stay stored")
	}
	for _, o := range classes {
		if !e.Contains(rdf.Triple{S: "<y>", P: rdf.RDFType, O: o}) {
			t.Errorf("⟨y type %s⟩ must stay visible", o)
		}
	}
	// x's run {A or B} sits in the upper cycle only: still one pair.
	if a, b := storedType(t, e, "<x>", "<A>"), storedType(t, e, "<x>", "<B>"); a == b {
		t.Errorf("x must keep exactly one of A/B after the hierarchy grew, got stored A=%v B=%v", a, b)
	}
	if n := e.ShadowedTypePairs(); n != 0 {
		t.Errorf("%d shadowed pairs left stored", n)
	}
}

// TestCompactTypeTableProportional pins which runs a round visits. A run
// made non-compact behind the engine's back on a subject the round does
// not touch is left alone while the class hierarchy stands still — only
// the delta's subjects are settled — and is cleaned by the full sweep of
// the first round that changes the hierarchy.
func TestCompactTypeTableProportional(t *testing.T) {
	e := New(Options{Fragment: rules.RDFSDefault, HierarchyEncoding: true})
	e.LoadTriples([]rdf.Triple{
		{S: "<Dog>", P: rdf.RDFSSubClassOf, O: "<Mammal>"},
		{S: "<Mammal>", P: rdf.RDFSSubClassOf, O: "<Animal>"},
		{S: "<x>", P: rdf.RDFType, O: "<Dog>"},
		{S: "<y>", P: rdf.RDFType, O: "<Dog>"},
	})
	e.Materialize()
	if e.HierView() == nil {
		t.Fatal("hierarchy encoding unexpectedly bypassed")
	}

	// Plant derived ⟨x type Animal⟩ and ⟨y type Animal⟩ next to the Dog
	// pairs, behind the engine's back.
	plantType(t, e, "<x>", "<Animal>")
	plantType(t, e, "<y>", "<Animal>")
	if e.ShadowedTypePairs() != 2 {
		t.Fatalf("fixture: planted runs not seen as shadowed (%d)", e.ShadowedTypePairs())
	}

	// A delta round on x, hierarchy unchanged.
	e.LoadTriples([]rdf.Triple{{S: "<x>", P: rdf.RDFType, O: "<Mammal>"}})
	e.Materialize()
	if storedType(t, e, "<x>", "<Animal>") {
		t.Error("the touched run must be compacted")
	}
	if !storedType(t, e, "<x>", "<Mammal>") {
		t.Error("the asserted pair that touched the run must stay stored")
	}
	if !storedType(t, e, "<y>", "<Animal>") {
		t.Error("the untouched run was visited: a delta round must settle only the delta's subjects")
	}

	// A new class edge: the hierarchy changed, so the whole table is swept.
	e.LoadTriples([]rdf.Triple{{S: "<Cat>", P: rdf.RDFSSubClassOf, O: "<Mammal>"}})
	e.Materialize()
	if storedType(t, e, "<y>", "<Animal>") {
		t.Error("a round that changes the class hierarchy must sweep every run")
	}
	if n := e.ShadowedTypePairs(); n != 0 {
		t.Errorf("%d shadowed pairs left after the full sweep", n)
	}
}

// yagoClosed materializes datagen.YagoLike(20) with the encoding on and
// returns the engine with a one-pair delta store naming a subject in the
// middle of its closed type table.
func yagoClosed(tb testing.TB) (*Engine, *store.Store) {
	tb.Helper()
	e := New(Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: true})
	e.LoadTriples(datagen.YagoLike(20).Generate())
	e.Materialize()
	tt := e.Main.Table(e.V.Type)
	if e.hier == nil || tt.Size() < 100_000 {
		tb.Fatalf("fixture: encoding on=%t, type table %d pairs", e.hier != nil, tt.Size())
	}
	mid := 2 * (tt.Size() / 2) // flat index of the middle pair
	delta := store.New(e.Main.NumSlots())
	delta.Add(e.V.Type, tt.Pairs()[mid], tt.Pairs()[mid+1])
	delta.Normalize()
	return e, delta
}

// TestCompactTypeTableAllocations: a one-subject round over a large type
// table with nothing to drop must not scan, copy or allocate per run.
func TestCompactTypeTableAllocations(t *testing.T) {
	e, delta := yagoClosed(t)
	version := e.Main.Table(e.V.Type).Version()
	allocs := testing.AllocsPerRun(10, func() { e.compactTypeTable(delta, false) })
	if allocs > 2 {
		t.Errorf("a one-subject compaction allocates %.0f objects", allocs)
	}
	if e.Main.Table(e.V.Type).Version() != version || delta.Size() != 1 {
		t.Error("a compaction with nothing to drop must leave main and delta untouched")
	}
}

func BenchmarkCompactTypeTable(b *testing.B) {
	e, delta := yagoClosed(b)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.compactTypeTable(store.New(0), true) // as in a round that moved the hierarchy
		}
	})
	b.Run("one-subject", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.compactTypeTable(delta, false)
		}
	})
}

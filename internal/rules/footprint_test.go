package rules

import (
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/store"
)

func testVocab() *Vocab {
	d := dictionary.NewWithVocabulary(rdf.VocabularyProperties, rdf.VocabularyResources)
	return ResolveVocab(d)
}

func allFragments() []Fragment {
	return []Fragment{RhoDF, RDFSDefault, RDFSFull, RDFSPlus, RDFSPlusFull}
}

// TestEveryRuleHasFootprint is the drift guard: every optimized rule of
// every fragment must resolve to at least one declarative spec and get a
// non-empty read and write footprint.
func TestEveryRuleHasFootprint(t *testing.T) {
	v := testVocab()
	for _, f := range allFragments() {
		rs := Rules(f)
		if err := AnnotateFootprints(rs, f, v); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for i := range rs {
			if rs[i].Reads().Empty() {
				t.Errorf("%s: rule %s has an empty read footprint", f, rs[i].Name)
			}
			if rs[i].Writes().Empty() {
				t.Errorf("%s: rule %s has an empty write footprint", f, rs[i].Name)
			}
		}
	}
}

// TestFootprintContents spot-checks derived footprints against Table 5.
func TestFootprintContents(t *testing.T) {
	v := testVocab()
	rs := Rules(RDFSPlus)
	if err := AnnotateFootprints(rs, RDFSPlus, v); err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Rule{}
	for i := range rs {
		byName[rs[i].Name] = &rs[i]
	}

	// CAX-SCO: subClassOf ∧ type ⇒ type. No wildcard anywhere.
	cax := byName["CAX-SCO"]
	if !cax.Reads().Has(v.SubClassOf) || !cax.Reads().Has(v.Type) || cax.Reads().Wildcard {
		t.Errorf("CAX-SCO reads %v", cax.Reads())
	}
	if !cax.Writes().Has(v.Type) || cax.Writes().Wildcard {
		t.Errorf("CAX-SCO writes %v", cax.Writes())
	}

	// PRP-DOM: scans arbitrary property tables (wildcard read), writes
	// only type.
	dom := byName["PRP-DOM"]
	if !dom.Reads().Has(v.Domain) || !dom.Reads().Wildcard {
		t.Errorf("PRP-DOM reads %v", dom.Reads())
	}
	if !dom.Writes().Has(v.Type) || dom.Writes().Wildcard {
		t.Errorf("PRP-DOM writes %v", dom.Writes())
	}

	// PRP-SPO1: wildcard on both sides (any p1 table in, any p2 table out).
	spo1 := byName["PRP-SPO1"]
	if !spo1.Reads().Wildcard || !spo1.Writes().Wildcard {
		t.Errorf("PRP-SPO1 reads %v writes %v", spo1.Reads(), spo1.Writes())
	}

	// The fused same-as rule covers EQ-REP-S/O/P: reads sameAs and
	// wildcard, writes wildcard (EQ-SYM is the reasoner's θ step).
	sa := byName["EQ-REP"]
	if !sa.Reads().Has(v.SameAs) || !sa.Reads().Wildcard {
		t.Errorf("EQ-REP reads %v", sa.Reads())
	}
	if sa.Writes().Has(v.SameAs) || !sa.Writes().Wildcard {
		t.Errorf("EQ-REP writes %v", sa.Writes())
	}

	// The θ-class rules are the reasoner's θ step, not rules.
	for _, name := range []string{"THETA", "SCM-SCO", "SCM-SPO", "EQ-SYM", "EQ-TRANS", "PRP-TRP"} {
		if byName[name] != nil {
			t.Errorf("rdfs-plus lists a rule %s", name)
		}
	}
}

// TestAnnotateFootprintsDriftGuard: an invented rule name must be
// rejected.
func TestAnnotateFootprintsDriftGuard(t *testing.T) {
	v := testVocab()
	rs := []Rule{{Name: "NOT-A-RULE", Apply: func(*Context) {}}}
	if err := AnnotateFootprints(rs, RDFSPlus, v); err == nil {
		t.Fatal("unknown rule name must fail footprint annotation")
	}
}

// TestFootprintTriggered exercises the scheduling predicate: a
// footprint is triggered by a store exactly when one of its tables is
// non-empty there, a wildcard by any non-empty table at all.
func TestFootprintTriggered(t *testing.T) {
	fp := Footprint{Props: []int{2, 5}}
	st := store.New(6)
	st.Ensure(2) // allocated but empty: not a change
	if fp.Triggered(st) {
		t.Error("an empty table must not trigger")
	}
	st.Add(5, 1, 2)
	if !fp.Triggered(st) {
		t.Error("footprint with a non-empty table must trigger")
	}
	other := store.New(6)
	for _, p := range []int{0, 1, 3, 4} {
		other.Add(p, 1, 2)
	}
	if fp.Triggered(other) {
		t.Error("footprint without a non-empty table must not trigger")
	}
	if fp.Triggered(store.New(1)) {
		t.Error("a store narrower than the footprint must not trigger")
	}
	wc := Footprint{Wildcard: true}
	if !wc.Triggered(st) || wc.Triggered(store.New(6)) {
		t.Error("wildcard triggering wrong")
	}
}

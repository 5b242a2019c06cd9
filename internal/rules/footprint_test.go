package rules

import (
	"slices"
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

// TestEveryRuleHasFootprint: every rule of every fragment gets a
// non-empty read and write footprint from the specs it covers.
func TestEveryRuleHasFootprint(t *testing.T) {
	v := testVocab()
	for _, f := range allFragments() {
		rs := Rules(f, v)
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
	rs := Rules(RDFSPlus, v)
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

// TestRulesMembershipGolden pins, per fragment, the names of the rules
// Rules returns (6 / 8 / 14 / 22 / 25): a change to Specs that adds or
// drops a fragment's rule must change this list with it.
func TestRulesMembershipGolden(t *testing.T) {
	rdfsDefault := []string{"CAX-SCO", "PRP-DOM", "PRP-RNG", "PRP-SPO1", "SCM-DOM1", "SCM-DOM2", "SCM-RNG1", "SCM-RNG2"}
	rdfsPlus := []string{
		"CAX-EQC1", "CAX-EQC2", "CAX-SCO", "EQ-REP", "PRP-DOM", "PRP-EQP1", "PRP-EQP2", "PRP-FP",
		"PRP-IFP", "PRP-INV1", "PRP-INV2", "PRP-RNG", "PRP-SPO1", "PRP-SYMP", "SCM-DOM1", "SCM-DOM2",
		"SCM-EQC1", "SCM-EQC2", "SCM-EQP1", "SCM-EQP2", "SCM-RNG1", "SCM-RNG2",
	}
	golden := map[Fragment][]string{
		RhoDF:        {"CAX-SCO", "PRP-DOM", "PRP-RNG", "PRP-SPO1", "SCM-DOM2", "SCM-RNG2"},
		RDFSDefault:  rdfsDefault,
		RDFSFull:     append(slices.Clone(rdfsDefault), "RDFS10", "RDFS12", "RDFS13", "RDFS4", "RDFS6", "RDFS8"),
		RDFSPlus:     rdfsPlus,
		RDFSPlusFull: append(slices.Clone(rdfsPlus), "SCM-CLS", "SCM-DP", "SCM-OP"),
	}
	v := testVocab()
	for _, f := range allFragments() {
		var got []string
		for _, r := range Rules(f, v) {
			got = append(got, r.Name)
		}
		slices.Sort(got)
		want := slices.Clone(golden[f])
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: rules %v, want %v", f, got, want)
		}
	}
}

// TestSpecImplementationDrift is the drift guard between spec.go and
// table5.go, both ways: a spec that no row implements panics in Rules,
// and every spec a row names belongs to some fragment.
func TestSpecImplementationDrift(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a spec with no implementation must panic")
			}
		}()
		build([]Spec{{Name: "NOT-A-RULE", Distinct: NoDistinct}})
	}()

	v := testVocab()
	declared := map[string]bool{}
	for _, f := range allFragments() {
		for _, sp := range Specs(f, v) {
			declared[sp.Name] = true
		}
	}
	for name, r := range table5 {
		covers := r.fuses
		if covers == nil {
			covers = []string{name}
		}
		for _, sp := range covers {
			if !declared[sp] {
				t.Errorf("table5 row %s names spec %s, which no fragment declares", name, sp)
			}
		}
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

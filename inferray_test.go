package inferray_test

import (
	"bytes"
	"strings"
	"testing"

	"inferray"
)

func TestQuickstartDocExample(t *testing.T) {
	r := inferray.New(inferray.WithFragment(inferray.RDFSDefault))
	mustAdd(t, r, "<human>", inferray.SubClassOf, "<mammal>")
	mustAdd(t, r, "<mammal>", inferray.SubClassOf, "<animal>")
	mustAdd(t, r, "<Bart>", inferray.Type, "<human>")
	stats, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Holds("<Bart>", inferray.Type, "<animal>") {
		t.Fatal("doc example broken")
	}
	if stats.InputTriples != 3 || stats.InferredTriples != 3 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestAddValidation(t *testing.T) {
	r := inferray.New()
	if err := r.Add("<s>", `"notAnIRI"`, "<o>"); err == nil {
		t.Error("literal predicate must be rejected")
	}
	if err := r.Add(`"literal"`, "<p>", "<o>"); err == nil {
		t.Error("literal subject must be rejected")
	}
	if err := r.Add("_:blank", "<p>", `"a literal"`); err != nil {
		t.Errorf("valid triple rejected: %v", err)
	}
	// AddTriples makes the same checks, and a batch with one bad triple
	// stages nothing: every staged triple can be dumped and deleted.
	good := inferray.Triple{S: "<x>", P: "<p>", O: "<y>"}
	for _, bad := range []inferray.Triple{{S: `"lit"`, P: `"notiri"`, O: "<o>"}, {S: `"lit"`, P: "<p>", O: "<o>"}} {
		if err := r.AddTriples([]inferray.Triple{good, bad}); err == nil {
			t.Errorf("AddTriples accepted %v", bad)
		}
	}
	if n := r.Pending(); n != 1 {
		t.Errorf("%d triples pending, want the one valid Add", n)
	}
}

func TestNTriplesRoundTripThroughReasoner(t *testing.T) {
	doc := `# taxonomy
<a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <b> .
<b> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <c> .
<x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <a> .
`
	r := inferray.New()
	if err := r.LoadNTriples(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <c> .",
		"<x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <c> .",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Re-load our own output: must parse cleanly and be a fixpoint.
	r2 := inferray.New()
	if err := r2.LoadNTriples(strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
	st2, err := r2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if st2.InferredTriples != 0 {
		t.Errorf("closure was not a fixpoint: %d new", st2.InferredTriples)
	}
	if st2.TotalTriples != r.Size() {
		t.Errorf("round trip size %d != %d", st2.TotalTriples, r.Size())
	}
}

func TestIncrementalAddThenRematerialize(t *testing.T) {
	r := inferray.New(inferray.WithFragment(inferray.RDFSDefault))
	mustAdd(t, r, "<a>", inferray.SubClassOf, "<b>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, "<b>", inferray.SubClassOf, "<c>")
	if r.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", r.Pending())
	}
	st, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Incremental {
		t.Fatal("second materialization must run incrementally")
	}
	if !r.Holds("<a>", inferray.SubClassOf, "<c>") {
		t.Fatal("second materialization missed the new chain link")
	}

	// The incremental closure must equal a one-shot closure of the union.
	oneShot := inferray.New(inferray.WithFragment(inferray.RDFSDefault))
	mustAdd(t, oneShot, "<a>", inferray.SubClassOf, "<b>")
	mustAdd(t, oneShot, "<b>", inferray.SubClassOf, "<c>")
	if _, err := oneShot.Materialize(); err != nil {
		t.Fatal(err)
	}
	if oneShot.Size() != r.Size() {
		t.Fatalf("incremental size %d != one-shot size %d", r.Size(), oneShot.Size())
	}
	for _, tr := range oneShot.AllTriples() {
		if !r.Holds(tr.S, tr.P, tr.O) {
			t.Fatalf("incremental closure missing ⟨%s %s %s⟩", tr.S, tr.P, tr.O)
		}
	}
}

// TestSnapshotAfterPromotion: a reasoner whose dictionary tombstoned a
// resource slot (a term later revealed to be a property) must still
// snapshot and restore losslessly.
func TestSnapshotAfterPromotion(t *testing.T) {
	r := inferray.New(inferray.WithFragment(inferray.RDFSDefault))
	mustAdd(t, r, "<x>", "<q>", "<p>") // <p> encoded as a resource
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, "<p>", inferray.Domain, "<c>") // promotes <p>
	mustAdd(t, r, "<y>", "<p>", "<z>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := r.SaveSnapshot(&buf); err != nil {
		t.Fatalf("SaveSnapshot after promotion: %v", err)
	}
	restored, err := inferray.LoadSnapshot(&buf)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if restored.Size() != r.Size() {
		t.Fatalf("restored size %d != %d", restored.Size(), r.Size())
	}
	for _, tr := range r.AllTriples() {
		if !restored.Holds(tr.S, tr.P, tr.O) {
			t.Fatalf("restored snapshot missing ⟨%s %s %s⟩", tr.S, tr.P, tr.O)
		}
	}
}

func TestAllTriplesAndSize(t *testing.T) {
	r := inferray.New()
	mustAdd(t, r, "<a>", inferray.SubClassOf, "<b>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	all := r.AllTriples()
	if len(all) != r.Size() {
		t.Fatalf("AllTriples %d != Size %d", len(all), r.Size())
	}
}

func TestParseFragmentFacade(t *testing.T) {
	f, err := inferray.ParseFragment("rdfs-plus")
	if err != nil || f != inferray.RDFSPlus {
		t.Fatalf("got %v, %v", f, err)
	}
}

func mustAdd(t *testing.T, r *inferray.Reasoner, s, p, o string) {
	t.Helper()
	if err := r.Add(s, p, o); err != nil {
		t.Fatal(err)
	}
}

func TestLoadTurtleFacade(t *testing.T) {
	doc := `
@prefix ex: <http://e/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:A rdfs:subClassOf ex:B .
ex:x a ex:A .
`
	r := inferray.New()
	if err := r.LoadTurtle(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	if !r.Holds("<http://e/x>", inferray.Type, "<http://e/B>") {
		t.Fatal("turtle-loaded data did not infer")
	}
}

package inferray_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inferray"
	"inferray/internal/sparql"
)

// TestUpdateInsertDeleteRoundTrip drives the full bidirectional write
// path through SPARQL UPDATE text: insert, verify the closure grew,
// delete, verify the consequences are maintained away.
func TestUpdateInsertDeleteRoundTrip(t *testing.T) {
	r := inferray.New()
	st, err := r.Update(`INSERT DATA {
		<human> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <mammal> .
		<mammal> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <animal> .
		<Bart> a <human>
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 1 || st.Inserted != 3 {
		t.Fatalf("stats = %+v, want 1 op / 3 inserted", st)
	}
	if !r.Holds("<Bart>", inferray.Type, "<animal>") {
		t.Fatal("closure missing ⟨Bart type animal⟩ after INSERT DATA")
	}

	st, err = r.Update(`DELETE DATA { <mammal> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <animal> }`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 1 {
		t.Fatalf("stats = %+v, want 1 deleted", st)
	}
	if r.Holds("<Bart>", inferray.Type, "<animal>") {
		t.Fatal("⟨Bart type animal⟩ survived deleting its supporting schema edge")
	}
	if !r.Holds("<Bart>", inferray.Type, "<mammal>") {
		t.Fatal("⟨Bart type mammal⟩ was lost; it does not depend on the deleted edge")
	}
}

// TestUpdateDeleteWhere checks pattern-driven retraction: asserted
// matches go, derived-only matches are no-ops, and matching + deletion
// see the closure (virtual triples included).
func TestUpdateDeleteWhere(t *testing.T) {
	r := inferray.New()
	if _, err := r.Update(`INSERT DATA {
		<a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <b> .
		<b> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <c> .
		<x> a <a> . <y> a <a> . <z> a <b>
	}`); err != nil {
		t.Fatal(err)
	}
	// Matches both asserted (x/y/z typed directly) and derived type
	// triples; only the asserted ones are retractions, and retracting
	// them removes the derivations too.
	st, err := r.Update(`DELETE WHERE { ?i a <a> }`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 2 {
		t.Fatalf("deleted = %d, want 2 (x and y)", st.Deleted)
	}
	for _, s := range []string{"<x>", "<y>"} {
		for _, c := range []string{"<a>", "<b>", "<c>"} {
			if r.Holds(s, inferray.Type, c) {
				t.Errorf("⟨%s type %s⟩ survived DELETE WHERE", s, c)
			}
		}
	}
	if !r.Holds("<z>", inferray.Type, "<c>") {
		t.Error("⟨z type c⟩ was lost; z's typing does not match the pattern")
	}
	// A pattern matching only derived triples deletes nothing.
	st, err = r.Update(`DELETE WHERE { <z> a <c> }`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 0 {
		t.Fatalf("deleting a derived-only triple reported %d deletions", st.Deleted)
	}
	if !r.Holds("<z>", inferray.Type, "<c>") {
		t.Error("derived ⟨z type c⟩ vanished on a no-op delete")
	}
}

// TestUpdateOpSequence: operations run in order within one request.
func TestUpdateOpSequence(t *testing.T) {
	r := inferray.New()
	st, err := r.Update(`
		PREFIX ex: <http://e/>
		INSERT DATA { ex:s ex:p ex:o } ;
		DELETE DATA { ex:s ex:p ex:o } ;
		INSERT DATA { ex:s ex:p ex:o2 }`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 3 || st.Inserted != 2 || st.Deleted != 1 {
		t.Fatalf("stats = %+v, want 3 ops / 2 inserted / 1 deleted", st)
	}
	if r.Holds("<http://e/s>", "<http://e/p>", "<http://e/o>") {
		t.Error("deleted triple still visible")
	}
	if !r.Holds("<http://e/s>", "<http://e/p>", "<http://e/o2>") {
		t.Error("re-inserted triple missing")
	}
}

// TestUpdateParseError: failures surface as positioned parse errors and
// leave the closure untouched.
func TestUpdateParseError(t *testing.T) {
	r := inferray.New()
	mustAdd(t, r, "<s>", "<p>", "<o>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	before := r.Size()
	_, err := r.Update(`DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }`)
	var pe *sparql.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sparql.ParseError", err)
	}
	if !strings.Contains(err.Error(), "only DELETE DATA and DELETE WHERE are supported") {
		t.Errorf("err = %v", err)
	}
	if r.Size() != before {
		t.Error("failed update changed the closure")
	}
}

// TestUpdateDurableReplay: a durable reasoner that crashes (never
// closed) after interleaved updates recovers to exactly the closure an
// uninterrupted in-memory run holds — deletions included, which means
// the WAL's delete records replayed.
func TestUpdateDurableReplay(t *testing.T) {
	dir := t.TempDir()
	ops := []string{
		`INSERT DATA {
			<a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <b> .
			<b> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <c> .
			<x> a <a> . <y> a <b> . <s> <p> <o>
		}`,
		`DELETE DATA { <x> a <a> }`,
		`INSERT DATA { <x> a <b> }`,
		`DELETE WHERE { ?i a <b> }`,
	}

	r := openDurable(t, dir)
	mem := inferray.New()
	for _, op := range ops {
		if _, err := r.Update(op); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.Update(op); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: drop r without Close. Sync "always" means every
	// acknowledged record is on disk.
	r2 := openDurable(t, dir)
	defer r2.Close()
	sameClosure(t, r2, mem)

	// The recovered reasoner keeps accepting updates.
	if _, err := r2.Update(`DELETE DATA { <s> <p> <o> }`); err != nil {
		t.Fatal(err)
	}
	if r2.Holds("<s>", "<p>", "<o>") {
		t.Error("post-recovery delete did not apply")
	}
}

// TestUpdateDurableCheckpointed: deletions survive through a checkpoint
// image (the asserted marks ride the snapshot), not just WAL replay.
func TestUpdateDurableCheckpointed(t *testing.T) {
	dir := t.TempDir()
	r := openDurable(t, dir)
	if _, err := r.Update(`INSERT DATA {
		<a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <b> .
		<x> a <a> . <y> a <a>
	}`); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Update(`DELETE DATA { <y> a <a> }`); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint delete lands in the fresh WAL and must replay on
	// top of the image's asserted marks.
	if _, err := r.Update(`DELETE DATA { <x> a <a> }`); err != nil {
		t.Fatal(err)
	}

	r2 := openDurable(t, dir)
	defer r2.Close()
	for _, s := range []string{"<x>", "<y>"} {
		if r2.Holds(s, inferray.Type, "<a>") || r2.Holds(s, inferray.Type, "<b>") {
			t.Errorf("recovered closure still types %s", s)
		}
	}
	if !r2.Holds("<a>", inferray.SubClassOf, "<b>") {
		t.Error("recovered closure lost the schema edge")
	}
}

// TestInsertAlreadyDerivedDurable: INSERT DATA of a triple the closure
// already stores as a derivation only marks it asserted — the generation
// does not move — and the mark is durable state like any pair: the
// triple outlives its derivation's support, through a checkpoint image
// and a reopen, and is retractable afterwards.
func TestInsertAlreadyDerivedDurable(t *testing.T) {
	dir := t.TempDir()
	r := openDurable(t, dir)
	if _, err := r.Update(`INSERT DATA {
		<p> <http://www.w3.org/2000/01/rdf-schema#domain> <C> .
		<x> <p> <y>
	}`); err != nil {
		t.Fatal(err)
	}
	if !r.Holds("<x>", inferray.Type, "<C>") {
		t.Fatal("fixture: ⟨x type C⟩ not derived")
	}
	if st, err := r.Update(`DELETE DATA { <x> a <C> }`); err != nil || st.Deleted != 0 {
		t.Fatalf("a derived-only triple was deletable: %+v, %v", st, err)
	}
	gen := r.Generation()
	if _, err := r.Update(`INSERT DATA { <x> a <C> }`); err != nil {
		t.Fatal(err)
	}
	if r.Generation() != gen {
		t.Errorf("asserting a stored derivation moved the generation %d -> %d", gen, r.Generation())
	}
	if _, err := r.Update(`DELETE DATA { <x> <p> <y> }`); err != nil {
		t.Fatal(err)
	}
	if !r.Holds("<x>", inferray.Type, "<C>") {
		t.Fatal("the asserted triple fell with its former derivation")
	}
	if _, err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gen = r.Generation()
	r.Close()

	r2 := openDurable(t, dir)
	defer r2.Close()
	if ds, _ := r2.DurabilityStats(); !ds.RecoveredFromSnapshot || ds.ReplayedRecords != 0 {
		t.Fatalf("reopen did not come from the image alone: %+v", ds)
	}
	if !r2.Holds("<x>", inferray.Type, "<C>") || r2.Generation() != gen {
		t.Errorf("reopened: holds=%t generation %d, want true / %d", r2.Holds("<x>", inferray.Type, "<C>"), r2.Generation(), gen)
	}
	if st, err := r2.Update(`DELETE DATA { <x> a <C> }`); err != nil || st.Deleted != 1 {
		t.Fatalf("retracting the restored assertion: %+v, %v", st, err)
	}
	if r2.Holds("<x>", inferray.Type, "<C>") {
		t.Error("the retracted assertion is still visible")
	}
}

// TestOpenRefusesOtherVersionLog: a data directory whose log carries
// another format version — the retired version 1, or a newer build's —
// stops Open with an error naming the file and both versions, and the
// log's bytes are left exactly as they were: it is some build's whole
// log, never a torn create to be rewritten empty.
func TestOpenRefusesOtherVersionLog(t *testing.T) {
	for _, v := range []uint32{1, 3} {
		dir := t.TempDir()
		payload := []byte("<x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <c> .\n")
		head := make([]byte, 16)
		copy(head[:4], "IFWL")
		binary.LittleEndian.PutUint32(head[4:], v)
		raw := binary.LittleEndian.AppendUint32(head, uint32(len(payload)))
		raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		raw = append(raw, payload...)
		logPath := filepath.Join(dir, "wal-0000000000000000.log")
		if err := os.WriteFile(logPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		r, err := inferray.Open(inferray.WithDurability(dir, durOpts))
		if err == nil {
			r.Close()
			t.Fatalf("version-%d log: Open succeeded", v)
		}
		for _, want := range []string{logPath, fmt.Sprintf("version-%d", v), "version 2"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version-%d refusal %q does not mention %q", v, err, want)
			}
		}
		if after, _ := os.ReadFile(logPath); !bytes.Equal(after, raw) {
			t.Errorf("version-%d log was modified by the refused Open", v)
		}
	}
}

// TestDeleteOnSettledReasonerCountsNoMaterialization: a DELETE with
// nothing staged goes through the write lock once, as a retraction — it
// does not first run (and count) an empty materialization. Staged
// triples are still drained first, in program order, when there are
// any.
func TestDeleteOnSettledReasonerCountsNoMaterialization(t *testing.T) {
	r := inferray.New()
	if _, err := r.Update(`INSERT DATA { <x> a <c> . <y> a <c> }`); err != nil {
		t.Fatal(err)
	}
	before := r.Metrics()
	for _, upd := range []string{
		`DELETE DATA { <x> a <c> }`,
		`DELETE WHERE { ?s a <c> }`,
		`DELETE WHERE { ?s a <nothing> }`,
	} {
		if _, err := r.Update(upd); err != nil {
			t.Fatal(err)
		}
	}
	after := r.Metrics()
	if after.Materializations != before.Materializations {
		t.Fatalf("materializations moved %d → %d across deletes on a settled reasoner",
			before.Materializations, after.Materializations)
	}
	if got := after.Retractions - before.Retractions; got != 2 {
		t.Fatalf("retractions = %d, want 2 (the empty match retracts nothing)", got)
	}
	if r.Holds("<x>", inferray.Type, "<c>") || r.Holds("<y>", inferray.Type, "<c>") {
		t.Fatal("deletes did not apply")
	}

	// A staged triple is visible to the delete that follows it.
	r.Add("<z>", inferray.Type, "<c>")
	st, err := r.Update(`DELETE DATA { <z> a <c> }`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 1 || r.Holds("<z>", inferray.Type, "<c>") {
		t.Fatalf("staged triple not drained before the delete: %+v", st)
	}
	if got := r.Metrics().Materializations - after.Materializations; got != 1 {
		t.Fatalf("draining one staged batch counted %d materializations, want 1", got)
	}

	// The first write of a fresh reasoner may be a delete; it must
	// succeed as a no-op, durably too (the record replays on reopen).
	dir := t.TempDir()
	d := openDurable(t, dir)
	if _, err := d.Update(`DELETE DATA { <x> a <c> }`); err != nil {
		t.Fatalf("delete as first write: %v", err)
	}
	if _, err := d.Update(`INSERT DATA { <x> a <c> }`); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir) // crash-style: d is not closed first
	defer d2.Close()
	defer d.Close()
	if !d2.Holds("<x>", inferray.Type, "<c>") {
		t.Fatal("log opening with a delete record did not replay")
	}
}

// TestDeleteBeforeAnyLoadCountsNoMaterialization: a DELETE on a fresh
// reasoner is a retraction of nothing, not a materialization of an
// empty store. The first batch after it is still the engine's first:
// adopted, not merged, and materialized exactly as on a reasoner that
// never saw the delete.
func TestDeleteBeforeAnyLoadCountsNoMaterialization(t *testing.T) {
	type counts struct {
		incremental                  bool
		input, inferred, total, iter int
		fired, skipped               int
	}
	firstBatch := func(deleteFirst bool) (counts, inferray.MetricsSnapshot) {
		r := inferray.New(inferray.WithFragment(inferray.RDFSDefault))
		if deleteFirst {
			if _, err := r.Update(`DELETE DATA { <a> <p> <b> }`); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Add("<a>", inferray.SubClassOf, "<b>"); err != nil {
			t.Fatal(err)
		}
		st, err := r.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		return counts{st.Incremental, st.InputTriples, st.InferredTriples, st.TotalTriples,
			st.Iterations, st.RulesFired, st.RulesSkipped}, r.Metrics()
	}
	got, m := firstBatch(true)
	want, _ := firstBatch(false)
	if m.Materializations != 1 {
		t.Errorf("delete then one batch counted %d materializations, want 1", m.Materializations)
	}
	if got != want {
		t.Errorf("first batch after a delete: %+v, want %+v as without it", got, want)
	}
	if want.incremental || want.fired != 8 || want.skipped != 0 {
		t.Errorf("a fresh reasoner's first batch: %+v, want every RDFS-default rule fired", want)
	}
}

// TestDroppedEncodingSurvivesImage: an image written after a schema
// retraction dropped the hierarchy encoding is fully materialized, and
// restoring it must not switch the encoding back on — retraction over a
// re-indexed closed store kept subsumption-derived type triples alive
// (found by TestWritePathConformance).
func TestDroppedEncodingSurvivesImage(t *testing.T) {
	const sub = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
	r := inferray.New()
	if _, err := r.Update(`INSERT DATA { <a> ` + sub + ` <b> . <b> ` + sub + ` <c> . <c> ` + sub + ` <d> . <x> a <a> }`); err != nil {
		t.Fatal(err)
	}
	st, err := r.Update(`DELETE DATA { <c> ` + sub + ` <d> }`)
	if err != nil || !st.EncodingDropped {
		t.Fatalf("schema retraction: stats %+v, err %v; want the encoding dropped", st, err)
	}
	img := filepath.Join(t.TempDir(), "dropped.img")
	if err := r.SaveImage(img); err != nil {
		t.Fatal(err)
	}
	restored, err := inferray.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if restored.HierarchyEncoded() {
		t.Fatal("restoring a fully materialized image re-enabled the hierarchy encoding")
	}
	for _, rr := range []*inferray.Reasoner{r, restored} {
		if _, err := rr.Update(`DELETE DATA { <x> a <a> }`); err != nil {
			t.Fatal(err)
		}
	}
	if restored.Holds("<x>", inferray.Type, "<b>") || restored.Holds("<x>", inferray.Type, "<c>") {
		t.Fatal("restored reasoner kept type triples whose asserted support was deleted")
	}
	sameClosure(t, restored, r)
}

package inferray_test

// The race-hammer suite for the concurrent serving contract: many
// reader goroutines drive the whole read path while a writer stages
// deltas and re-materializes. Run under -race (CI does); before the
// engine-level locking these tests fail with detector reports, after it
// they must pass and observe only consistent closures.

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"inferray"
	"inferray/internal/datagen"
)

func hammer(t *testing.T) {
	t.Helper()
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	add := func(s, p, o string) {
		t.Helper()
		if err := r.Add(s, p, o); err != nil {
			t.Fatal(err)
		}
	}
	add("<subOrgOf>", inferray.Type, inferray.TransitiveProperty)
	add("<worksFor>", inferray.SubPropertyOf, "<memberOf>")
	add("<GroupA>", "<subOrgOf>", "<DeptCS>")
	add("<DeptCS>", "<subOrgOf>", "<Univ0>")
	add("<alice>", "<worksFor>", "<DeptCS>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const deltas = 12
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				switch j % 5 {
				case 0:
					// SELECT with a join: subject and object runs.
					rows, err := r.Select(`SELECT ?who ?org WHERE { ?who <memberOf> ?org . ?org <subOrgOf> <Univ0> }`)
					if err != nil {
						t.Error(err)
						return
					}
					// alice's membership chain is in every snapshot.
					if len(rows) < 1 {
						t.Errorf("snapshot lost base inference: %v", rows)
						return
					}
				case 1:
					// Object-bound pattern: exercises the ⟨o,s⟩ cache.
					if _, err := r.QueryCount([3]string{"?who", "<memberOf>", "<GroupA>"}); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if !r.Holds("<alice>", "<memberOf>", "<DeptCS>") {
						t.Error("snapshot lost base membership")
						return
					}
				case 3:
					if r.Size() == 0 {
						t.Error("empty snapshot")
						return
					}
				case 4:
					if err := r.WriteNTriples(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i)
	}

	// The writer streams deltas; each one re-materializes incrementally
	// while the readers keep querying.
	for j := 0; j < deltas; j++ {
		add(fmt.Sprintf("<worker%d>", j), "<worksFor>", "<GroupA>")
		st, err := r.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Incremental {
			t.Fatal("delta ran a full materialization")
		}
	}
	close(stop)
	wg.Wait()

	// Every worker must have propagated through worksFor ⊑ memberOf and
	// the transitive subOrgOf chain.
	n, err := r.QueryCount(
		[3]string{"?who", "<memberOf>", "?org"},
		[3]string{"?org", "<subOrgOf>", "<Univ0>"},
	)
	if err != nil {
		t.Fatal(err)
	}
	// alice via DeptCS, workers via GroupA (plus GroupA⊑DeptCS hop):
	// each worker is a member of GroupA only; GroupA subOrgOf Univ0.
	if n != 1+deltas {
		t.Fatalf("final closure has %d memberships under Univ0, want %d", n, 1+deltas)
	}
}

// TestConcurrentReadersDuringMaterialize is the headline stress test of
// the concurrency contract (readers see pre- or post-delta closures,
// never a mid-merge state).
func TestConcurrentReadersDuringMaterialize(t *testing.T) {
	hammer(t)
}

// TestConcurrentStagingNeverBlocks checks the staging half of the
// contract: Add and Pending work from many goroutines concurrently with
// reads and materializations.
func TestConcurrentStaging(t *testing.T) {
	r := inferray.New()
	if err := r.Add("<C1>", inferray.SubClassOf, "<C2>"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := r.Add(fmt.Sprintf("<x%d_%d>", i, j), inferray.Type, "<C1>"); err != nil {
					t.Error(err)
					return
				}
				r.Pending()
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 10; j++ {
			if _, err := r.Materialize(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	// 200 instances, each typed C1 and inferred C2.
	n, err := r.QueryCount([3]string{"?x", inferray.Type, "<C2>"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("final closure has %d C2 instances, want 200", n)
	}
}

// TestConcurrentUpdateDeleteWhere hammers the bidirectional write path:
// one writer alternates INSERT DATA and DELETE WHERE updates (the
// delete-rederive path rewrites tables in place under the write lock)
// while reader goroutines drive the full read path and a durable
// checkpoint fires mid-stream. Readers must only ever observe closures
// from before or after an update, never a half-retracted state — the
// base facts below are never deleted, so they must be visible in every
// snapshot.
func TestConcurrentUpdateDeleteWhere(t *testing.T) {
	dir := t.TempDir()
	r := openDurable(t, dir, inferray.WithFragment(inferray.RDFSPlus))
	defer r.Close()
	if _, err := r.Update(`INSERT DATA {
		<subOrgOf> a <http://www.w3.org/2002/07/owl#TransitiveProperty> .
		<worksFor> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <memberOf> .
		<GroupA> <subOrgOf> <DeptCS> .
		<DeptCS> <subOrgOf> <Univ0> .
		<alice> <worksFor> <DeptCS>
	}`); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const churns = 10
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				switch j % 4 {
				case 0:
					rows, err := r.Select(`SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`)
					if err != nil {
						t.Error(err)
						return
					}
					if len(rows) < 1 {
						t.Errorf("snapshot lost alice's membership: %v", rows)
						return
					}
				case 1:
					if !r.Holds("<alice>", "<memberOf>", "<DeptCS>") {
						t.Error("snapshot lost base membership")
						return
					}
				case 2:
					if r.Size() == 0 {
						t.Error("empty snapshot")
						return
					}
				case 3:
					if err := r.WriteNTriples(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}

	// The writer churns: insert a cohort of workers, checkpoint halfway,
	// then DELETE WHERE the cohort away again.
	for j := 0; j < churns; j++ {
		if _, err := r.Update(fmt.Sprintf(
			`INSERT DATA { <w%d_a> <worksFor> <GroupA> . <w%d_b> <worksFor> <GroupA> }`, j, j)); err != nil {
			t.Fatal(err)
		}
		if j == churns/2 {
			if _, err := r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		st, err := r.Update(`DELETE WHERE { ?w <worksFor> <GroupA> }`)
		if err != nil {
			t.Fatal(err)
		}
		if st.Deleted != 2 {
			t.Fatalf("churn %d deleted %d, want 2", j, st.Deleted)
		}
	}
	close(stop)
	wg.Wait()

	// All workers retracted; only alice's chain survives, and recovery
	// agrees with the live closure.
	n, err := r.QueryCount([3]string{"?who", "<memberOf>", "?org"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("final closure has %d memberships, want alice only", n)
	}
	r2 := openDurable(t, dir, inferray.WithFragment(inferray.RDFSPlus))
	defer r2.Close()
	sameClosure(t, r2, r)
}

// TestSaveSnapshotDoesNotBlockReaders: an image write only reads, so it
// holds the shared lock like a checkpoint. With SaveSnapshot parked on a
// writer nobody drains, a query must still answer; the image the drained
// pipe finally delivers must load.
func TestSaveSnapshotDoesNotBlockReaders(t *testing.T) {
	r := inferray.New()
	for i := 0; i < 20_000; i++ { // more than the writer's buffer, so Write really parks
		r.Add(fmt.Sprintf("<http://example.org/s%d>", i), "<http://example.org/p>", fmt.Sprintf("<http://example.org/o%d>", i))
	}
	r.Add("<x>", inferray.Type, "<C>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	saved := make(chan error, 1)
	go func() {
		err := r.SaveSnapshot(pw)
		pw.CloseWithError(err)
		saved <- err
	}()
	first := make([]byte, 4)
	if _, err := io.ReadFull(pr, first); err != nil { // SaveSnapshot is inside Write, lock held
		t.Fatal(err)
	}
	held := make(chan bool, 1)
	go func() { held <- r.Holds("<x>", inferray.Type, "<C>") }()
	select {
	case ok := <-held:
		if !ok {
			t.Error("Holds answered false beside the image write")
		}
	case err := <-saved:
		t.Fatalf("SaveSnapshot returned (%v) with its writer blocked", err)
	case <-time.After(5 * time.Second):
		t.Fatal("Holds blocked behind SaveSnapshot: the image write holds the exclusive lock")
	}
	loaded, err := inferray.LoadSnapshot(io.MultiReader(bytes.NewReader(first), pr))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != r.Size() || !loaded.Holds("<x>", inferray.Type, "<C>") {
		t.Errorf("image written beside a reader: %d triples, want %d", loaded.Size(), r.Size())
	}
}

// lubmChurnReasoner materializes a LUBM base under rdfs-plus with the
// hierarchy encoding on and returns it with one stored takesCourse
// triple: tables long enough that a single-triple write is spliced in
// place, cache and all.
func lubmChurnReasoner(t *testing.T) (*inferray.Reasoner, inferray.Triple) {
	t.Helper()
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	triples := datagen.LUBM(20_000, 1)
	r.AddTriples(triples)
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range triples {
		if strings.HasSuffix(tr.P, "lubm/takesCourse>") {
			return r, tr
		}
	}
	t.Fatal("LUBM base holds no takesCourse triple")
	return nil, inferray.Triple{}
}

// TestConcurrentObjectScansWhileSplicing: readers scan by object — the
// ⟨o,s⟩ cache of the takesCourse table, the visible-subject list of a
// class — while a writer inserts and deletes single triples, each of
// which patches those caches in place instead of dropping them. Under
// -race a reader touching a list mid-splice is a report; either way
// every answer must contain the base data's own rows, and what the
// writer carried must equal a recount when it stops.
func TestConcurrentObjectScansWhileSplicing(t *testing.T) {
	r, like := lubmChurnReasoner(t)
	byCourse := fmt.Sprintf(`SELECT ?s WHERE { ?s %s %s }`, like.P, like.O)
	byClass := fmt.Sprintf(`SELECT ?s WHERE { ?s a %s }`, strings.Replace(like.P, "takesCourse", "Student", 1))
	base := map[string]int{}
	for _, q := range []string{byCourse, byClass} {
		rows, err := r.Select(q)
		if err != nil || len(rows) == 0 {
			t.Fatalf("%s: %d rows, %v", q, len(rows), err)
		}
		base[q] = len(rows)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := r.Select(q)
				if err != nil {
					t.Error(err)
					return
				}
				// Inserted students come and go; the base rows never leave.
				if len(rows) < base[q] || len(rows) > base[q]+1 {
					t.Errorf("%s: %d rows, base %d", q, len(rows), base[q])
					return
				}
			}
		}([]string{byCourse, byClass}[i%2])
	}
	for i := 0; i < 60; i++ {
		tr := fmt.Sprintf("<http://example.org/churn/s%d> %s %s", i, like.P, like.O)
		if _, err := r.Update("INSERT DATA { " + tr + " }"); err != nil {
			t.Fatal(err)
		}
		if st, err := r.Update("DELETE DATA { " + tr + " }"); err != nil || st.Deleted != 1 {
			t.Fatalf("delete %d: %+v, %v", i, st, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := r.CheckCarried(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`inferray_store_os_cache_total{event="patched"}`,
		`inferray_store_merges_total{path="splice"}`,
	} {
		if !regexp.MustCompile(regexp.QuoteMeta(want) + ` [1-9]`).Match(buf.Bytes()) {
			t.Errorf("after 120 single-triple writes, %s is zero or missing", want)
		}
	}
}

// TestSizeIsCarriedAcrossWrites: Materialize sizes the closure before
// and after an incremental run and the /update handler asks a third
// time; Retract sizes it once more. On the incremental path every one of
// those is a hit on the visible-count memo the write carried forward —
// no pass over the rdf:type table — and the carried number is the cold
// recount's.
func TestSizeIsCarriedAcrossWrites(t *testing.T) {
	r, like := lubmChurnReasoner(t)
	size := r.Size()
	passes := r.TypeStatsPasses()
	if passes < 1 {
		t.Fatalf("%d whole-table passes after the first materialization: is the encoding on?", passes)
	}
	for i := 0; i < 10; i++ {
		tr := fmt.Sprintf("<http://example.org/churn/s%d> %s %s", i, like.P, like.O)
		if _, err := r.Update("INSERT DATA { " + tr + " }"); err != nil {
			t.Fatal(err)
		}
		if got := r.Size(); got <= size {
			t.Fatalf("insert %d: Size() %d, was %d", i, got, size)
		}
		if i%2 == 1 {
			if _, err := r.Update("DELETE DATA { " + tr + " }"); err != nil {
				t.Fatal(err)
			}
		}
		size = r.Size()
		if got := r.TypeStatsPasses(); got != passes {
			t.Fatalf("write %d: %d whole-table passes over the type table, %d before the writes: Size() missed the memo", i, got, passes)
		}
	}
	if err := r.CheckCarried(); err != nil {
		t.Fatal(err)
	}
}

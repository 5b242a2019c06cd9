package inferray_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"inferray"
	"inferray/internal/datagen"
	"inferray/internal/rdf"
)

func ntriples(t testing.TB, triples []inferray.Triple) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, triples); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBulkIngestAllocBudget pins the heap allocations of the headline
// path — LoadNTriples + Materialize over LUBM-small (datagen.LUBM(100_000, 1),
// 70,173 triples, rdfs-plus) — per input triple. The parent of the
// block-parallel ingest (PR 11) measured 1.94: one string per input
// line plus the append-grown hand-over buffers, on top of the ≈0.93
// Materialize itself allocates. The budget is half of that, 0.97; the
// block reader and the range loader together measure 0.945 (ingest
// alone 0.02). The CI bench-smoke job runs this as a regression gate.
func TestBulkIngestAllocBudget(t *testing.T) {
	const budget = 0.97
	triples := datagen.LUBM(100_000, 1)
	data := ntriples(t, triples)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	if err := r.LoadNTriples(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	st, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if st.InputTriples == 0 || !r.Holds(triples[0].S, triples[0].P, triples[0].O) {
		t.Fatalf("nothing materialized: %+v", st)
	}
	got := float64(after.Mallocs-before.Mallocs) / float64(len(triples))
	t.Logf("%.3f heap allocations per input triple (%d triples)", got, len(triples))
	if got > budget {
		t.Fatalf("bulk ingest = %.3f heap allocations per input triple, budget is %.2f", got, budget)
	}
}

// TestLoadIsAllOrNothing: a document that fails to parse stages
// nothing, however many blocks of it parsed (and were interned) first.
func TestLoadIsAllOrNothing(t *testing.T) {
	good := ntriples(t, datagen.LUBM(30_000, 1)) // > 2 MB: several blocks
	bad := append(append([]byte(nil), good...), "this line is not a statement\n"...)
	r := inferray.New()
	err := r.LoadNTriples(bytes.NewReader(bad))
	var pe *rdf.ParseError
	if !errors.As(err, &pe) || pe.Line != bytes.Count(good, []byte("\n"))+1 {
		t.Fatalf("err = %v, want a ParseError on the last line", err)
	}
	if n := r.Pending(); n != 0 {
		t.Fatalf("%d triples staged by a failed load", n)
	}
	if err := r.LoadTurtle(strings.NewReader("<a> <b> <c> .\n<d> <e> [ ] .\n")); err == nil || r.Pending() != 0 {
		t.Fatalf("failed Turtle load: err %v, %d staged", err, r.Pending())
	}
}

// TestStagingKeepsArrivalOrder: loose triples and bulk-loaded documents
// interleave in the staging buffer, and the closure (and the count of
// what was staged) is that of the concatenation, Turtle hand-over
// included.
func TestStagingKeepsArrivalOrder(t *testing.T) {
	var ttl strings.Builder
	ttl.WriteString("@prefix : <http://e/> .\n")
	const turtleTriples = 20_000 // several hand-over slabs
	for i := 0; i < turtleTriples; i++ {
		fmt.Fprintf(&ttl, ":s%d :p :o%d .\n", i, i%7)
	}
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.Add("<http://e/x>", "<http://e/q>", "<http://e/p>")) // p first seen as a resource
	must(r.LoadTurtle(strings.NewReader(ttl.String())))         // then as a predicate, in the same batch
	must(r.Add("<http://e/p>", inferray.SubPropertyOf, "<http://e/super>"))
	must(r.LoadNTriples(strings.NewReader("<http://e/y> <http://e/p> <http://e/z> . # comment\n")))
	if got := r.Pending(); got != turtleTriples+3 {
		t.Fatalf("Pending = %d, want %d", got, turtleTriples+3)
	}
	st, err := r.Materialize()
	must(err)
	if st.InputTriples != turtleTriples+3 || r.Pending() != 0 {
		t.Fatalf("input %d, pending %d", st.InputTriples, r.Pending())
	}
	if st.ParseTime <= 0 || st.EncodeTime <= 0 || st.NormalizeTime <= 0 || st.NormalizeTime > st.TotalTime {
		t.Errorf("phase times not reported: parse %v encode %v normalize %v total %v",
			st.ParseTime, st.EncodeTime, st.NormalizeTime, st.TotalTime)
	}
	for _, probe := range [][3]string{
		{"<http://e/s19999>", "<http://e/super>", "<http://e/o0>"},
		{"<http://e/y>", "<http://e/super>", "<http://e/z>"},
		{"<http://e/x>", "<http://e/q>", "<http://e/p>"},
	} {
		if !r.Holds(probe[0], probe[1], probe[2]) {
			t.Errorf("closure lacks ⟨%s %s %s⟩", probe[0], probe[1], probe[2])
		}
	}
	// A second Materialize drained nothing, so it reports no ingest phases.
	st, err = r.Materialize()
	must(err)
	if st.ParseTime != 0 || st.EncodeTime != 0 {
		t.Errorf("idle materialization reports parse %v encode %v", st.ParseTime, st.EncodeTime)
	}
}

// TestConcurrentBulkLoad hammers the bulk path: several goroutines
// LoadNTriples multi-block documents (parsed and interned on worker
// goroutines, outside every lock) while another keeps materializing and
// readers run Holds and Select. Whatever the interleaving, the final
// closure is the one-shot closure of all the documents. Run under -race.
func TestConcurrentBulkLoad(t *testing.T) {
	triples := datagen.LUBM(60_000, 7)
	const docs = 3
	var parts [docs][]byte
	for i := range parts {
		parts[i] = ntriples(t, triples[i*len(triples)/docs:(i+1)*len(triples)/docs])
		if len(parts[i]) < 1<<20 {
			t.Fatalf("document %d is %d bytes: too small to be cut into blocks", i, len(parts[i]))
		}
	}
	opts := []inferray.Option{inferray.WithFragment(inferray.RDFSPlus)}
	want := inferray.New(opts...)
	want.AddTriples(triples)
	if _, err := want.Materialize(); err != nil {
		t.Fatal(err)
	}

	r := inferray.New(opts...)
	// A first materialization, so the readers have something that must
	// stay visible throughout.
	anchor := triples[0]
	r.AddTriples(triples[:1])
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var background, loaders sync.WaitGroup
	for i := 0; i < 4; i++ {
		background.Add(1)
		go func(i int) {
			defer background.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if i == 0 {
					if _, err := r.Materialize(); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if !r.Holds(anchor.S, anchor.P, anchor.O) {
					t.Error("a reader lost the anchor triple")
					return
				}
				if _, err := r.Select(fmt.Sprintf(`SELECT ?o WHERE { %s %s ?o } LIMIT 5`, anchor.S, anchor.P)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	for i := range parts {
		loaders.Add(1)
		go func(doc []byte) {
			defer loaders.Done()
			if err := r.LoadNTriples(bytes.NewReader(doc)); err != nil {
				t.Error(err)
			}
		}(parts[i])
	}
	loaders.Wait()
	close(stop)
	background.Wait()
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	sameClosure(t, r, want)
}

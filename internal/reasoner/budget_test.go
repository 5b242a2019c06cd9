package reasoner

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// TestSingleTripleWriteBudget is the deterministic gate beside the
// SingleTriple benchmarks (the benchmarks are readings; this fails).
// A single-triple write must cost bytes in proportion to the change,
// not the store: measured over the closures of LUBM-20k and LUBM-80k —
// four times the pairs in every table the write touches — the bytes
// allocated per insert, and per delete, stay within a factor of two of
// each other and under an absolute cap. (Before the in-place merge an
// insert took 0.29 MB and 0.99 MB: main + delta reallocated per touched
// table. Before the rederivation pass was seeded with the doomed set's
// neighbourhood a delete took 8.15 MB on LUBM-250k: the pass emitted a
// table's worth of pairs.) And a single-triple delete merges back no
// more rederived pairs than it overdeleted: the rederivation pass's
// output is filtered to what can be new before it is sorted and merged.
func TestSingleTripleWriteBudget(t *testing.T) {
	const (
		inserts     = 64
		capPerWrite = 64 << 10 // bytes; measured 14–16 KB per insert, 28 KB per delete at both sizes
	)
	perInsert, perDelete := map[int]uint64{}, map[int]uint64{}
	for _, size := range []int{20_000, 80_000} {
		triples := datagen.LUBM(size, 1)
		e := New(Options{Fragment: rules.RDFSPlus, Parallel: false, HierarchyEncoding: true})
		e.LoadTriples(triples)
		e.Materialize()
		var like rdf.Triple
		var victims []rdf.Triple
		for _, tr := range triples {
			if strings.HasSuffix(tr.P, "lubm/takesCourse>") {
				like = tr
				if len(victims) < 16 {
					victims = append(victims, tr)
				}
			}
		}
		batches := make([][]rdf.Triple, inserts)
		for i := range batches {
			batches[i] = []rdf.Triple{{S: fmt.Sprintf("<http://example.org/budget/s%d>", i), P: like.P, O: like.O}}
		}
		// One write off the books: the first splice of an exact-capacity
		// table regrows it (with headroom for the ones measured next).
		e.LoadTriples([]rdf.Triple{{S: "<http://example.org/budget/warm>", P: like.P, O: like.O}})
		e.Materialize()

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, b := range batches {
			e.LoadTriples(b)
			if st := e.Materialize(); st.InputTriples != 1 {
				t.Fatalf("LUBM-%d: insert absorbed %d triples", size, st.InputTriples)
			}
		}
		runtime.ReadMemStats(&after)
		perInsert[size] = (after.TotalAlloc - before.TotalAlloc) / inserts
		if perInsert[size] > capPerWrite {
			t.Errorf("LUBM-%d: %d bytes allocated per single-triple insert, cap %d", size, perInsert[size], capPerWrite)
		}

		runtime.GC()
		runtime.ReadMemStats(&before)
		for i, v := range victims {
			st, err := e.Retract([]rdf.Triple{v})
			if err != nil || st.Retracted != 1 {
				t.Fatalf("LUBM-%d: delete %d: %+v, %v", size, i, st, err)
			}
			if st.RederiveKept > st.Overdeleted {
				t.Errorf("LUBM-%d: delete %d merged %d rederived pairs for %d overdeleted (the pass emitted %d)",
					size, i, st.RederiveKept, st.Overdeleted, st.RederiveEmitted)
			}
		}
		runtime.ReadMemStats(&after)
		perDelete[size] = (after.TotalAlloc - before.TotalAlloc) / uint64(len(victims))
		if perDelete[size] > capPerWrite {
			t.Errorf("LUBM-%d: %d bytes allocated per single-triple delete, cap %d", size, perDelete[size], capPerWrite)
		}
		if err := e.CheckCarried(); err != nil {
			t.Errorf("LUBM-%d: %v", size, err)
		}
	}
	for _, w := range []struct {
		op  string
		per map[int]uint64
	}{{"insert", perInsert}, {"delete", perDelete}} {
		small, large := w.per[20_000], w.per[80_000]
		t.Logf("bytes per single-triple %s: LUBM-20k %d, LUBM-80k %d", w.op, small, large)
		if large >= 2*small {
			t.Errorf("bytes per %s grew with the tables: %d on LUBM-20k, %d on LUBM-80k", w.op, small, large)
		}
	}
}

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
// allocated per insert, and per delete of each victim kind, stay within
// a factor of two of each other and under an absolute cap. The delete
// victims are takesCourse triples and emailAddress triples whose address
// no other subject holds: PRP-IFP reads only the run of the deleted
// address, so such a delete overdeletes the one pair and leaves the
// sameAs table alone. (Before the in-place merge an insert took 0.29 MB
// and 0.99 MB: main + delta reallocated per touched table. Before the
// rederivation pass was seeded with the doomed set's neighbourhood a
// delete took 8.15 MB on LUBM-250k: the pass emitted a table's worth of
// pairs. Before PRP-IFP read its delta's runs only, an emailAddress
// delete emitted every stored sameAs pair and the θ step wiped the
// sameAs table: megabytes.) And a single-triple delete merges back no
// more rederived pairs than it overdeleted: the rederivation pass's
// output is filtered to what can be new before it is sorted and merged.
func TestSingleTripleWriteBudget(t *testing.T) {
	const (
		inserts     = 64
		capPerWrite = 64 << 10 // bytes; measured 13–16 KB per insert, 26 KB per takesCourse and 10 KB per emailAddress delete at both sizes
	)
	kinds := []string{"takesCourse", "emailAddress"}
	perInsert, perDelete := map[int]uint64{}, map[string]map[int]uint64{}
	for _, kind := range kinds {
		perDelete[kind] = map[int]uint64{}
	}
	for _, size := range []int{20_000, 80_000} {
		triples := datagen.LUBM(size, 1)
		e := New(Options{Fragment: rules.RDFSPlus, Parallel: false, HierarchyEncoding: true})
		e.LoadTriples(triples)
		e.Materialize()
		var like rdf.Triple
		victims := map[string][]rdf.Triple{}
		holders := map[string]int{} // subjects per email address
		for _, tr := range triples {
			if strings.HasSuffix(tr.P, "lubm/emailAddress>") {
				holders[tr.O]++
			}
		}
		for _, tr := range triples {
			switch {
			case strings.HasSuffix(tr.P, "lubm/takesCourse>"):
				like = tr
				if len(victims["takesCourse"]) < 16 {
					victims["takesCourse"] = append(victims["takesCourse"], tr)
				}
			case strings.HasSuffix(tr.P, "lubm/emailAddress>") && holders[tr.O] == 1:
				if len(victims["emailAddress"]) < 16 {
					victims["emailAddress"] = append(victims["emailAddress"], tr)
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

		for _, kind := range kinds {
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i, v := range victims[kind] {
				st, err := e.Retract([]rdf.Triple{v})
				if err != nil || st.Retracted != 1 {
					t.Fatalf("LUBM-%d: %s delete %d: %+v, %v", size, kind, i, st, err)
				}
				if kind == "emailAddress" && st.Overdeleted != 1 {
					t.Errorf("LUBM-%d: an unshared emailAddress delete overdeleted %d pairs, want 1", size, st.Overdeleted)
				}
				if st.RederiveKept > st.Overdeleted {
					t.Errorf("LUBM-%d: %s delete %d merged %d rederived pairs for %d overdeleted (the pass emitted %d)",
						size, kind, i, st.RederiveKept, st.Overdeleted, st.RederiveEmitted)
				}
			}
			runtime.ReadMemStats(&after)
			perDelete[kind][size] = (after.TotalAlloc - before.TotalAlloc) / uint64(len(victims[kind]))
			if perDelete[kind][size] > capPerWrite {
				t.Errorf("LUBM-%d: %d bytes allocated per single-triple %s delete, cap %d", size, perDelete[kind][size], kind, capPerWrite)
			}
		}
		if err := e.CheckCarried(); err != nil {
			t.Errorf("LUBM-%d: %v", size, err)
		}
	}
	for _, w := range []struct {
		op  string
		per map[int]uint64
	}{{"insert", perInsert}, {"takesCourse delete", perDelete["takesCourse"]}, {"emailAddress delete", perDelete["emailAddress"]}} {
		small, large := w.per[20_000], w.per[80_000]
		t.Logf("bytes per single-triple %s: LUBM-20k %d, LUBM-80k %d", w.op, small, large)
		if large >= 2*small {
			t.Errorf("bytes per %s grew with the tables: %d on LUBM-20k, %d on LUBM-80k", w.op, small, large)
		}
	}
}

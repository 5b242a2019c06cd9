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
// victims are takesCourse triples; emailAddress triples whose address
// no other subject holds, which PRP-IFP links to nothing, so each
// overdeletes its one pair and leaves the sameAs table alone; and two
// kinds that reach a θ table: emailAddress triples whose address a
// duplicate record shares, which doom one sameAs link, and
// subOrganizationOf edges (owl:TransitiveProperty). Those two may
// overdelete only the pairs their change can reach in the θ table, at
// most 64 pairs per delete, and cost more bytes than the others (they
// re-close a clique or a subtree, and the first subOrganizationOf
// delete builds that table's ⟨o,s⟩ list), so they have a cap of their
// own. (Before the in-place merge an insert took 0.29 MB and 0.99 MB:
// main + delta reallocated per touched table. Before the rederivation
// pass was seeded with the doomed set's neighbourhood a delete took
// 8.15 MB on LUBM-250k: the pass emitted a table's worth of pairs.
// Before PRP-IFP read its delta's runs only, an unshared emailAddress
// delete emitted every stored sameAs pair. Before the θ step closed and
// overdeleted only the pairs a change can reach, a shared-address delete
// and a subOrganizationOf delete wiped their whole θ table: 1.72 MB and
// 6.18 MB per shared-address delete, overdeleting 838–1,100 and
// 3,373–3,637 pairs, and 216 KB and 855 KB per subOrganizationOf delete,
// 337–364 and 1,373–1,400 pairs.) And a
// single-triple delete merges back no more rederived pairs than it
// overdeleted: the rederivation pass's output is filtered to what can be
// new before it is sorted and merged.
func TestSingleTripleWriteBudget(t *testing.T) {
	const (
		inserts      = 64
		capPerWrite  = 64 << 10  // bytes; measured 13–16 KB per insert, 26 KB per takesCourse and 10 KB per emailAddress delete at both sizes
		capPerTheta  = 128 << 10 // bytes per θ-reaching delete; measured 75–79 KB per shared-address and 34–35 KB per subOrganizationOf delete
		maxOverTheta = 64        // pairs one θ-reaching delete may overdelete
	)
	kinds := []string{"takesCourse", "emailAddress", "shared emailAddress", "subOrganizationOf"}
	reachesTheta := map[string]bool{"shared emailAddress": true, "subOrganizationOf": true}
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
		taken := map[string]bool{} // shared addresses with a victim already
		for _, tr := range triples {
			kind := ""
			switch {
			case strings.HasSuffix(tr.P, "lubm/takesCourse>"):
				like, kind = tr, "takesCourse"
			case strings.HasSuffix(tr.P, "lubm/emailAddress>") && holders[tr.O] == 1:
				kind = "emailAddress"
			case strings.HasSuffix(tr.P, "lubm/emailAddress>") && !taken[tr.O]:
				taken[tr.O], kind = true, "shared emailAddress"
			case strings.HasSuffix(tr.P, "lubm/subOrganizationOf>"):
				kind = "subOrganizationOf"
			}
			if kind != "" && len(victims[kind]) < 16 {
				victims[kind] = append(victims[kind], tr)
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
				if reachesTheta[kind] && st.Overdeleted > maxOverTheta {
					t.Errorf("LUBM-%d: a %s delete overdeleted %d pairs, want at most %d", size, kind, st.Overdeleted, maxOverTheta)
				}
				if st.RederiveKept > st.Overdeleted {
					t.Errorf("LUBM-%d: %s delete %d merged %d rederived pairs for %d overdeleted (the pass emitted %d)",
						size, kind, i, st.RederiveKept, st.Overdeleted, st.RederiveEmitted)
				}
			}
			runtime.ReadMemStats(&after)
			perDelete[kind][size] = (after.TotalAlloc - before.TotalAlloc) / uint64(len(victims[kind]))
			limit := uint64(capPerWrite)
			if reachesTheta[kind] {
				limit = capPerTheta
			}
			if perDelete[kind][size] > limit {
				t.Errorf("LUBM-%d: %d bytes allocated per single-triple %s delete, cap %d", size, perDelete[kind][size], kind, limit)
			}
		}
		if err := e.CheckCarried(); err != nil {
			t.Errorf("LUBM-%d: %v", size, err)
		}
	}
	perOp := map[string]map[int]uint64{"insert": perInsert}
	for _, kind := range kinds {
		perOp[kind+" delete"] = perDelete[kind]
	}
	for _, op := range append([]string{"insert"}, kinds...) {
		if op != "insert" {
			op += " delete"
		}
		small, large := perOp[op][20_000], perOp[op][80_000]
		t.Logf("bytes per single-triple %s: LUBM-20k %d, LUBM-80k %d", op, small, large)
		if large >= 2*small {
			t.Errorf("bytes per %s grew with the tables: %d on LUBM-20k, %d on LUBM-80k", op, small, large)
		}
	}
}

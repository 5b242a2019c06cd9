package inferray_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"inferray"
	"inferray/internal/wal"
)

// TestWritePathConformance drives every caller of the one write path
// against each other. A seeded script of library writes, SPARQL UPDATEs
// and checkpoints runs on a durable leader; after every operation an
// in-memory follower fed only by StreamWAL + ApplyReplicated (and
// re-bootstrapped with RestoreImage, from a bare io.Reader over the
// leader's image, after each checkpoint) must report
// the leader's Generation() and hold its closure byte for byte, and so
// must, every 25th operation and at the end, a fresh Open on a copy of
// the data directory. The leader reaches its state through Materialize
// and Update, the follower through replicated records, the reopened
// copy through install + replay: if one of those callers of apply
// drifts from the others, the dumps or the generations part here.
func TestWritePathConformance(t *testing.T) {
	seed := int64(1)
	for _, frag := range []inferray.Fragment{inferray.RDFSDefault, inferray.RDFSPlus} {
		for _, encoding := range []bool{true, false} {
			seed++
			t.Run(fmt.Sprintf("%s/encoding=%v", frag, encoding), func(t *testing.T) {
				runWritePathScript(t, frag, encoding, seed, 240)
			})
		}
	}
}

const conformanceNS = "http://example.org/"

func conformanceIRI(kind string, i int) string {
	return fmt.Sprintf("<%s%s%d>", conformanceNS, kind, i)
}

// conformanceTriple draws one triple from a small universe — six
// classes, four properties, sixteen individuals — so that inserts,
// duplicates, deletes of asserted triples and deletes of merely derived
// ones all occur, and schema edges come and go under the instance data.
func conformanceTriple(rng *rand.Rand, plus bool) inferray.Triple {
	class := func() string { return conformanceIRI("C", rng.Intn(6)) }
	prop := func() string { return conformanceIRI("p", rng.Intn(4)) }
	ind := func() string { return conformanceIRI("i", rng.Intn(16)) }
	n := 10
	if plus {
		n = 14
	}
	switch k := rng.Intn(n); {
	case k < 2:
		return inferray.Triple{S: class(), P: inferray.SubClassOf, O: class()}
	case k < 3:
		return inferray.Triple{S: prop(), P: inferray.SubPropertyOf, O: prop()}
	case k < 4:
		return inferray.Triple{S: prop(), P: inferray.Domain, O: class()}
	case k < 5:
		return inferray.Triple{S: prop(), P: inferray.Range, O: class()}
	case k < 7:
		return inferray.Triple{S: ind(), P: inferray.Type, O: class()}
	case k < 10:
		return inferray.Triple{S: ind(), P: prop(), O: ind()}
	case k < 11:
		return inferray.Triple{S: ind(), P: inferray.SameAs, O: ind()}
	case k < 12:
		return inferray.Triple{S: prop(), P: inferray.InverseOf, O: prop()}
	case k < 13:
		return inferray.Triple{S: prop(), P: inferray.Type, O: inferray.TransitiveProperty}
	default:
		return inferray.Triple{S: class(), P: inferray.EquivalentClass, O: class()}
	}
}

func conformanceBatch(rng *rand.Rand, plus bool) []inferray.Triple {
	batch := make([]inferray.Triple, 1+rng.Intn(4))
	for i := range batch {
		batch[i] = conformanceTriple(rng, plus)
	}
	return batch
}

func dataBlock(batch []inferray.Triple) string {
	var b strings.Builder
	for _, tr := range batch {
		fmt.Fprintf(&b, "%s %s %s .\n", tr.S, tr.P, tr.O)
	}
	return b.String()
}

// sortedDump is the closure as sorted N-Triples — the byte-for-byte
// comparison form.
func sortedDump(t *testing.T, r *inferray.Reasoner) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// dumpDiff lists the lines only one of two sorted dumps holds.
func dumpDiff(got, want string) string {
	only := func(a, b, mark string) (out string) {
		in := map[string]bool{}
		for _, l := range strings.SplitAfter(b, "\n") {
			in[l] = true
		}
		for _, l := range strings.SplitAfter(a, "\n") {
			if !in[l] {
				out += mark + l
			}
		}
		return out
	}
	return only(want, got, "- ") + only(got, want, "+ ")
}

func runWritePathScript(t *testing.T, frag inferray.Fragment, encoding bool, seed int64, nOps int) {
	opts := []inferray.Option{inferray.WithFragment(frag), inferray.WithHierarchyEncoding(encoding)}
	// A low record threshold makes apply's automatic checkpoint fire
	// many times over the script, after adds and after deletes alike.
	durable := inferray.WithDurability(filepath.Join(t.TempDir(), "leader"),
		inferray.DurabilityOptions{Sync: "none", CheckpointRecords: 12})
	leader, err := inferray.Open(append(opts, durable)...)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.ApplyReplicated(inferray.WALAdd, nil); err == nil {
		t.Fatal("ApplyReplicated accepted on a durable reasoner")
	}
	if _, err := leader.RestoreImage(strings.NewReader("")); err == nil {
		t.Fatal("RestoreImage accepted on a durable reasoner")
	}

	follower := inferray.New(opts...)
	var pos inferray.WALPosition
	bootstraps := 0
	bootstrap := func() {
		t.Helper()
		path, _, ok, err := leader.SnapshotFile()
		if err != nil || !ok {
			t.Fatalf("no image to bootstrap from: ok=%v err=%v", ok, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// As the wire delivers it: a stream with no size and no seek.
		if pos, err = follower.RestoreImage(struct{ io.Reader }{f}); err != nil {
			t.Fatal(err)
		}
		bootstraps++
	}
	catchUp := func() {
		t.Helper()
		s, err := leader.StreamWAL(pos)
		if errors.Is(err, inferray.ErrWALTruncated) {
			bootstrap() // an automatic checkpoint pruned the position
			s, err = leader.StreamWAL(pos)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for {
			kind, payload, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			batch, err := wal.DecodeBatch(payload)
			if err != nil {
				t.Fatal(err)
			}
			if err := follower.ApplyReplicated(kind, batch); err != nil {
				t.Fatal(err)
			}
		}
		pos = s.Pos()
	}
	agree := func(who string, got *inferray.Reasoner, op int, what string) {
		t.Helper()
		// What each side carries from write to write must equal a recount.
		for name, r := range map[string]*inferray.Reasoner{"leader": leader, who: got} {
			if err := r.CheckCarried(); err != nil {
				t.Fatalf("op %d (%s): %s: %v", op, what, name, err)
			}
		}
		if g, w := got.Generation(), leader.Generation(); g != w {
			t.Fatalf("op %d (%s): %s at generation %d, leader at %d", op, what, who, g, w)
		}
		if g, w := sortedDump(t, got), sortedDump(t, leader); g != w {
			t.Fatalf("op %d (%s): %s closure differs from the leader's (- leader only, + %s only):\n%s", op, what, who, who, dumpDiff(g, w))
		}
	}
	reopen := func(op int, what string) {
		t.Helper()
		st, _ := leader.DurabilityStats()
		dir := filepath.Join(t.TempDir(), "copy")
		if err := os.CopyFS(dir, os.DirFS(st.Dir)); err != nil {
			t.Fatal(err)
		}
		r, err := inferray.Open(append(opts, inferray.WithDurability(dir, durOpts))...)
		if err != nil {
			t.Fatalf("op %d (%s): reopening a copy of the data directory: %v", op, what, err)
		}
		defer r.Close()
		agree("reopened copy", r, op, what)
	}

	plus := frag == inferray.RDFSPlus
	rng := rand.New(rand.NewSource(seed))
	counts := map[string]int{}
	for op := 1; op <= nOps; op++ {
		var what string
		switch k := rng.Intn(100); {
		case k < 20:
			what = "AddTriples+Materialize"
			leader.AddTriples(conformanceBatch(rng, plus))
			if rng.Intn(3) == 0 {
				leader.AddTriples(conformanceBatch(rng, plus)) // two runs, one record
			}
			_, err = leader.Materialize()
		case k < 35:
			what = "LoadNTriples+Materialize"
			if err = leader.LoadNTriples(strings.NewReader(dataBlock(conformanceBatch(rng, plus)))); err == nil {
				_, err = leader.Materialize()
			}
		case k < 55:
			what = "INSERT DATA"
			_, err = leader.Update("INSERT DATA {\n" + dataBlock(conformanceBatch(rng, plus)) + "}")
		case k < 77:
			what = "DELETE DATA"
			if rng.Intn(3) == 0 {
				// Staged and not yet materialized: the delete must drain
				// it first, as its own record, in program order.
				leader.AddTriples(conformanceBatch(rng, plus))
			}
			_, err = leader.Update("DELETE DATA {\n" + dataBlock(conformanceBatch(rng, plus)) + "}")
		case k < 92:
			what = "DELETE WHERE"
			pattern := [...]string{
				fmt.Sprintf("?s a %s", conformanceIRI("C", rng.Intn(6))),
				fmt.Sprintf("%s ?p ?o", conformanceIRI("i", rng.Intn(16))),
				fmt.Sprintf("?s %s ?o", conformanceIRI("p", rng.Intn(4))),
				fmt.Sprintf("?c <http://www.w3.org/2000/01/rdf-schema#subClassOf> %s", conformanceIRI("C", rng.Intn(6))),
				fmt.Sprintf("?s %s ?m . ?m %s ?o", conformanceIRI("p", rng.Intn(4)), conformanceIRI("p", rng.Intn(4))),
			}[rng.Intn(5)]
			_, err = leader.Update("DELETE WHERE { " + pattern + " }")
		default:
			what = "Checkpoint"
			if _, err = leader.Checkpoint(); err == nil {
				bootstrap()
				agree("re-bootstrapped follower", follower, op, what)
			}
		}
		if err != nil {
			t.Fatalf("op %d (%s): %v", op, what, err)
		}
		counts[what]++
		catchUp()
		agree("follower", follower, op, what)
		if op%25 == 0 || op == nOps {
			reopen(op, what)
		}
	}
	for _, what := range []string{"AddTriples+Materialize", "LoadNTriples+Materialize", "INSERT DATA", "DELETE DATA", "DELETE WHERE", "Checkpoint"} {
		if counts[what] == 0 {
			t.Errorf("the script never ran %s", what)
		}
	}
	if st, _ := leader.DurabilityStats(); st.CheckpointError != "" {
		t.Errorf("an automatic checkpoint failed: %s", st.CheckpointError)
	}
	if m := leader.Metrics(); m.Checkpoints <= uint64(counts["Checkpoint"]) {
		t.Errorf("no automatic checkpoint ran (%d checkpoints, %d forced)", m.Checkpoints, counts["Checkpoint"])
	}
	if bootstraps <= counts["Checkpoint"] {
		t.Errorf("the follower never re-bootstrapped across an automatic checkpoint (%d bootstraps, %d forced)", bootstraps, counts["Checkpoint"])
	}
	if leader.Size() == 0 || leader.Metrics().Retractions == 0 {
		t.Errorf("degenerate script: %d triples, %d retractions", leader.Size(), leader.Metrics().Retractions)
	}
}

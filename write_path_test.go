package inferray_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"inferray"
	"inferray/internal/baseline"
	"inferray/internal/datagen"
	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/rules"
	"inferray/internal/server"
	"inferray/internal/sparql"
	"inferray/internal/wal"
)

// TestWritePathConformance is the one conformance harness of the write
// path. A script of library writes, SPARQL UPDATEs, checkpoints, crashes
// and HTTP queries runs on a durable leader while the test keeps its own
// model of the asserted set. After every op the leader's visible closure
// must equal the closure of that model computed by an independent
// evaluator — baseline.HashJoinEngine over rules.Specs: hash joins, no
// sort, merge, hierarchy encoding, DRed or WAL. An in-memory follower fed
// only by StreamWAL + ApplyReplicated (re-bootstrapped with RestoreImage
// from a bare io.Reader after each checkpoint) must report the leader's
// Generation() and hold its closure byte for byte, and so must a fresh
// Open on a copy of the data directory every 25th op and on a crash.
// Queries go over GET /query to a caching server on the leader: a cached
// body must equal a cold one at the same generation, and the rows must
// equal a naive evaluation over the oracle closure.
//
// The matrix: random scripts under all five fragments with the
// hierarchy encoding on and off, and a LUBM base churned by single
// triples, which must take the store's in-place paths. The encoding's
// edge datasets run as scripts of this harness in
// encoding_equivalence_test.go, and a crash after plain batches in
// TestDurableCrashRecoveryEquivalence.
func TestWritePathConformance(t *testing.T) {
	seed := int64(1)
	for _, frag := range conformanceFragments {
		for _, encoding := range []bool{true, false} {
			seed++
			cfg := scriptConfig{frag: frag, encoding: encoding, parallel: seed%2 == 0}
			rng := rand.New(rand.NewSource(seed))
			ops := randomOps(rng, 120)
			t.Run(fmt.Sprintf("%s/encoding=%v", frag, encoding), func(t *testing.T) {
				t.Parallel()
				w := runScript(t, cfg, rng, ops)
				w.checkCoverage()
			})
		}
	}
	for _, frag := range []inferray.Fragment{inferray.RDFSDefault, inferray.RDFSPlus} {
		for _, encoding := range []bool{true, false} {
			seed++
			cfg := scriptConfig{frag: frag, encoding: encoding, parallel: seed%2 == 0}
			t.Run(fmt.Sprintf("lubm/%s/encoding=%v", frag, encoding), func(t *testing.T) {
				t.Parallel()
				runLUBMScript(t, cfg, seed)
			})
		}
	}
	// Guard trips in scripts of their own, so the random scripts above keep
	// the encoding for their whole length. The first trip comes before any
	// delete, which could drop the encoding first by retracting a schema
	// edge.
	for _, frag := range conformanceFragments {
		for _, encoding := range []bool{true, false} {
			seed++
			cfg := scriptConfig{frag: frag, encoding: encoding, parallel: seed%2 == 0}
			rng := rand.New(rand.NewSource(seed))
			ops := "aaig" + randomOps(rng, 16) + "g" + randomOps(rng, 16) + "g"
			t.Run(fmt.Sprintf("guards/%s/encoding=%v", frag, encoding), func(t *testing.T) {
				t.Parallel()
				runScript(t, cfg, rng, ops)
			})
		}
	}
}

// FuzzOpStream decodes its input into one op script for one
// configuration: a fragment, the encoding switch, the seed the op
// arguments are drawn from, and the ops as letters of opNames (any other
// byte picks a letter by its value). The seed corpus holds one script
// per equivalence the harness checks.
func FuzzOpStream(f *testing.F) {
	for _, s := range []struct {
		frag     inferray.Fragment
		encoding bool
		seed     int64
		ops      string
	}{
		{inferray.RDFSFull, false, 1, "aaallla"},       // incremental batches = one shot
		{inferray.RDFSPlus, true, 2, "aiddiwdidw"},     // DRed-maintained = rematerialized
		{inferray.RDFSPlusFull, true, 3, "al"},         // encoding on = encoding off
		{inferray.RDFSDefault, true, 4, "allli"},       // encoded deltas = materialized deltas
		{inferray.RDFSPlusFull, false, 5, "aqiqqdqwq"}, // cached = cold
		{inferray.RhoDF, true, 6, "aaxaxcaxd"},         // recovered = uninterrupted
		{inferray.RDFSPlus, false, 7, "a"},             // one shot = hash-join evaluator
		{inferray.RDFSPlus, true, 8, "dxaxd"},          // a delete before any load = none, across recovery
		{inferray.RDFSPlusFull, true, 9, "aigdxgq"},    // a guard trip = the encoding never on
	} {
		f.Add(uint8(s.frag), s.encoding, s.seed, s.ops)
	}
	f.Fuzz(func(t *testing.T, frag uint8, encoding bool, seed int64, ops string) {
		if len(ops) > 40 { // bounds one execution's time
			ops = ops[:40]
		}
		cfg := scriptConfig{
			frag:     conformanceFragments[int(frag)%len(conformanceFragments)],
			encoding: encoding,
			parallel: seed%2 == 0,
		}
		letters := []byte(ops)
		for i, b := range letters {
			if _, ok := opNames[b]; !ok {
				letters[i] = opLetters[int(b)%len(opLetters)]
			}
		}
		runScript(t, cfg, rand.New(rand.NewSource(seed)), string(letters))
	})
}

var conformanceFragments = []inferray.Fragment{
	inferray.RhoDF, inferray.RDFSDefault, inferray.RDFSFull, inferray.RDFSPlus, inferray.RDFSPlusFull,
}

// The op alphabet, one letter per op kind.
const opLetters = "alidwcxq"

var opNames = map[byte]string{
	'a': "AddTriples+Materialize",
	'l': "LoadNTriples+Materialize",
	'i': "INSERT DATA",
	'd': "DELETE DATA",
	'w': "DELETE WHERE",
	'c': "Checkpoint",
	'x': "Crash",
	'q': "Query",
	'g': "Guard trip", // not in opLetters: only scripts that name it run it
}

// randomOps draws n op letters; opMix gives their relative frequencies.
func randomOps(rng *rand.Rand, n int) string {
	const opMix = "aaalliiiiddddwwwcxqq"
	ops := make([]byte, n)
	for i := range ops {
		ops[i] = opMix[rng.Intn(len(opMix))]
	}
	return string(ops)
}

const conformanceNS = "http://example.org/"

func conformanceIRI(kind string, i int) string {
	return fmt.Sprintf("<%s%s%d>", conformanceNS, kind, i)
}

// The small universe the scripts draw from: six classes, four
// properties, sixteen individuals.
func conformanceClass(rng *rand.Rand) string { return conformanceIRI("C", rng.Intn(6)) }
func conformanceProp(rng *rand.Rand) string  { return conformanceIRI("p", rng.Intn(4)) }
func conformanceInd(rng *rand.Rand) string   { return conformanceIRI("i", rng.Intn(16)) }

// conformanceTriple draws one triple from the small universe, so that
// inserts, duplicates, deletes of asserted triples and deletes of merely
// derived ones all occur, and schema edges come and go under the
// instance data. The RDFS-Plus universe adds sameAs, the property
// markers and the owl: equivalences and inverses.
func conformanceTriple(rng *rand.Rand, plus bool) inferray.Triple {
	class := func() string { return conformanceClass(rng) }
	prop := func() string { return conformanceProp(rng) }
	ind := func() string { return conformanceInd(rng) }
	n := 10
	if plus {
		n = 18
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
	case k < 14:
		return inferray.Triple{S: class(), P: inferray.EquivalentClass, O: class()}
	case k < 15:
		return inferray.Triple{S: prop(), P: inferray.Type, O: inferray.FunctionalProperty}
	case k < 16:
		return inferray.Triple{S: prop(), P: inferray.Type, O: inferray.InverseFunctionalProperty}
	case k < 17:
		return inferray.Triple{S: prop(), P: inferray.Type, O: inferray.SymmetricProperty}
	default:
		return inferray.Triple{S: prop(), P: inferray.EquivalentProperty, O: prop()}
	}
}

// guardTriple draws one triple that re-describes the vocabulary the
// hierarchy encoding relies on, of one of the three guards' kinds
// (rules.Guards): a class below a rule marker (G1), rdf:type,
// rdfs:subClassOf or rdfs:subPropertyOf at a schema side a rule reads a
// predicate from (G2), or a sameAs pair between an individual and a class
// (G3). The first two trip in every fragment; G3 only in the sameAs
// fragments and once the class is a hierarchy node.
func (w *conformance) guardTriple(rng *rand.Rand) (tr inferray.Triple, trips bool) {
	switch rng.Intn(3) {
	case 0:
		m := w.guards.Markers[rng.Intn(len(w.guards.Markers))]
		return inferray.Triple{S: conformanceClass(rng), P: inferray.SubClassOf, O: w.dict.MustDecode(m)}, true
	case 1:
		side := w.guards.Sides[rng.Intn(len(w.guards.Sides))]
		p := w.dict.MustDecode(dictionary.PropID(side.Pidx))
		encoded := []string{inferray.Type, inferray.SubClassOf, inferray.SubPropertyOf}[rng.Intn(3)]
		if side.Object {
			return inferray.Triple{S: conformanceProp(rng), P: p, O: encoded}, true
		}
		return inferray.Triple{S: encoded, P: p, O: conformanceProp(rng)}, true
	default:
		return inferray.Triple{S: conformanceInd(rng), P: inferray.SameAs, O: conformanceClass(rng)}, false
	}
}

func dataBlock(batch []inferray.Triple) string {
	var b strings.Builder
	for _, tr := range batch {
		fmt.Fprintf(&b, "%s %s %s .\n", tr.S, tr.P, tr.O)
	}
	return b.String()
}

func parseBlock(t *testing.T, nt string) []inferray.Triple {
	t.Helper()
	var out []inferray.Triple
	if err := rdf.ReadNTriples(strings.NewReader(nt), func(tr rdf.Triple) error {
		out = append(out, tr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
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

type scriptConfig struct {
	frag               inferray.Fragment
	encoding, parallel bool
}

// conformance is one running script: the participants, the model of the
// asserted set, and its oracle closure.
type conformance struct {
	t       *testing.T
	cfg     scriptConfig
	opts    []inferray.Option
	durable inferray.DurabilityOptions

	leader, follower *inferray.Reasoner
	ts               *httptest.Server
	pos              inferray.WALPosition

	// asserted is the model; closure / dump its oracle closure, recomputed
	// only after the model changed.
	asserted map[inferray.Triple]bool
	dict     *dictionary.Dictionary
	specs    []rules.Spec
	guards   rules.Guarded
	closure  [][3]string
	dump     string
	changed  bool

	op           int
	what         string
	materialized bool
	counts       map[string]int
	bootstraps   int
	hits, stale  int
	// Leader metrics of the lineages a crash retired.
	retractions, splices, patched uint64
}

func newConformance(t *testing.T, cfg scriptConfig) *conformance {
	w := &conformance{
		t:   t,
		cfg: cfg,
		opts: []inferray.Option{inferray.WithFragment(cfg.frag), inferray.WithHierarchyEncoding(cfg.encoding),
			inferray.WithParallelism(cfg.parallel)},
		// A low record threshold makes apply's automatic checkpoint fire
		// many times over a script, after adds and after deletes alike.
		durable:  inferray.DurabilityOptions{Sync: "none", CheckpointRecords: 12},
		asserted: map[inferray.Triple]bool{},
		changed:  true,
		counts:   map[string]int{},
	}
	d := dictionary.NewWithVocabulary(rdf.VocabularyProperties, rdf.VocabularyResources)
	v := rules.ResolveVocab(d)
	w.dict, w.specs, w.guards = d, rules.Specs(cfg.frag, v), rules.Guards(v)
	w.leader = w.open(filepath.Join(t.TempDir(), "leader"))
	if err := w.leader.ApplyReplicated(inferray.WALAdd, nil); err == nil {
		t.Fatal("ApplyReplicated accepted on a durable reasoner")
	}
	if _, err := w.leader.RestoreImage(strings.NewReader("")); err == nil {
		t.Fatal("RestoreImage accepted on a durable reasoner")
	}
	w.serve()
	w.follower = inferray.New(w.opts...)
	t.Cleanup(func() {
		w.ts.Close()
		w.leader.Close()
	})
	return w
}

func (w *conformance) open(dir string) *inferray.Reasoner {
	w.t.Helper()
	r, err := inferray.Open(append(w.opts, inferray.WithDurability(dir, w.durable))...)
	if err != nil {
		w.fatalf("opening %s: %v", dir, err)
	}
	return r
}

func (w *conformance) serve() {
	w.ts = httptest.NewServer(server.New(w.leader).Handler())
}

func (w *conformance) fatalf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("op %d (%s): %s", w.op, w.what, fmt.Sprintf(format, args...))
}

func (w *conformance) must(err error) {
	w.t.Helper()
	if err != nil {
		w.fatalf("%v", err)
	}
}

// run performs one op and then every per-op check.
func (w *conformance) run(letter byte, do func()) {
	w.t.Helper()
	w.op++
	w.what = opNames[letter]
	do()
	w.counts[w.what]++
	w.check()
}

// runScript runs ops on a fresh leader, drawing each op's arguments from
// rng over the small universe.
func runScript(t *testing.T, cfg scriptConfig, rng *rand.Rand, ops string) *conformance {
	w := newConformance(t, cfg)
	plus := cfg.frag.UsesSameAs()
	w.runOps(rng, ops, func() inferray.Triple { return conformanceTriple(rng, plus) })
	return w
}

// runOps runs the op letters in order, drawing triples from draw, with
// a reopened copy checked every 25th op and after the last.
func (w *conformance) runOps(rng *rand.Rand, ops string, draw func() inferray.Triple) {
	w.t.Helper()
	batch := func() []inferray.Triple {
		b := make([]inferray.Triple, 1+rng.Intn(4))
		for i := range b {
			b[i] = draw()
		}
		return b
	}
	for i := 0; i < len(ops); i++ {
		letter := ops[i]
		w.run(letter, func() {
			switch letter {
			case 'a':
				runs := [][]inferray.Triple{batch()}
				if rng.Intn(3) == 0 {
					runs = append(runs, batch()) // two runs, one record
				}
				w.add(runs...)
			case 'l':
				w.load(dataBlock(batch()))
			case 'i':
				w.insert(batch())
			case 'd':
				var staged []inferray.Triple
				if rng.Intn(3) == 0 {
					// Staged and not yet materialized: the delete must
					// drain it first, as its own record, in program order.
					staged = batch()
				}
				w.deleteData(staged, w.deletion(rng, draw))
			case 'w':
				w.deleteWhere(wherePattern(rng, draw))
			case 'c':
				w.checkpoint()
			case 'x':
				w.crash()
			case 'q':
				w.query()
			case 'g':
				tr, trips := w.guardTriple(rng)
				w.insert([]inferray.Triple{tr})
				if trips && w.leader.HierarchyEncoded() {
					w.fatalf("%s %s %s kept the encoding", tr.S, tr.P, tr.O)
				}
			}
		})
		if w.op%25 == 0 || i == len(ops)-1 {
			w.reopen()
		}
	}
}

// deletion draws a DELETE DATA batch: universe triples, asserted
// triples of the model, and sometimes a derived-only visible triple,
// whose deletion must be a no-op.
func (w *conformance) deletion(rng *rand.Rand, draw func() inferray.Triple) []inferray.Triple {
	asserted := w.assertedSorted()
	var batch []inferray.Triple
	for n := 1 + rng.Intn(3); len(batch) < n; {
		if len(asserted) > 0 && rng.Intn(2) == 0 {
			batch = append(batch, asserted[rng.Intn(len(asserted))])
		} else {
			batch = append(batch, draw())
		}
	}
	if rng.Intn(3) == 0 {
		var derived []inferray.Triple
		for _, c := range w.oracle() {
			if tr := (inferray.Triple{S: c[0], P: c[1], O: c[2]}); !w.asserted[tr] {
				derived = append(derived, tr)
			}
		}
		if len(derived) > 0 {
			batch = append(batch, derived[rng.Intn(len(derived))])
		}
	}
	return batch
}

// wherePattern draws a DELETE WHERE pattern shaped after a drawn triple.
func wherePattern(rng *rand.Rand, draw func() inferray.Triple) string {
	tr := draw()
	switch rng.Intn(4) {
	case 0:
		return "?s " + tr.P + " " + tr.O
	case 1:
		return tr.S + " ?p ?o"
	case 2:
		return "?s " + tr.P + " ?o"
	default:
		return "?s " + tr.P + " ?m . ?m " + draw().P + " ?o"
	}
}

func (w *conformance) assertedSorted() []inferray.Triple {
	out := make([]inferray.Triple, 0, len(w.asserted))
	for tr := range w.asserted {
		out = append(out, tr)
	}
	slices.SortFunc(out, func(a, b inferray.Triple) int {
		return cmp.Or(strings.Compare(a.S, b.S), strings.Compare(a.P, b.P), strings.Compare(a.O, b.O))
	})
	return out
}

func (w *conformance) assert(batch []inferray.Triple) {
	for _, tr := range batch {
		w.changed = w.changed || !w.asserted[tr]
		w.asserted[tr] = true
	}
}

func (w *conformance) retract(tr inferray.Triple) {
	w.changed = w.changed || w.asserted[tr]
	delete(w.asserted, tr)
}

func (w *conformance) materialize() {
	w.t.Helper()
	st, err := w.leader.Materialize()
	w.must(err)
	if w.materialized && !st.Incremental {
		w.fatalf("a Materialize after the first was not incremental")
	}
	w.materialized = true
}

func (w *conformance) add(runs ...[]inferray.Triple) {
	w.t.Helper()
	for _, b := range runs {
		w.must(w.leader.AddTriples(b))
		w.assert(b)
	}
	w.materialize()
}

func (w *conformance) load(nt string) {
	w.t.Helper()
	w.must(w.leader.LoadNTriples(strings.NewReader(nt)))
	w.assert(parseBlock(w.t, nt))
	w.materialize()
}

func (w *conformance) insert(batch []inferray.Triple) {
	w.t.Helper()
	_, err := w.leader.Update("INSERT DATA {\n" + dataBlock(batch) + "}")
	w.must(err)
	w.assert(batch)
	w.materialized = true
}

func (w *conformance) deleteData(staged, batch []inferray.Triple) {
	w.t.Helper()
	if len(staged) > 0 {
		w.must(w.leader.AddTriples(staged))
		w.assert(staged)
	}
	_, err := w.leader.Update("DELETE DATA {\n" + dataBlock(batch) + "}")
	w.must(err)
	for _, tr := range batch {
		w.retract(tr)
	}
}

// deleteWhere matches the pattern naively over the oracle closure; the
// matched ground triples leave the model.
func (w *conformance) deleteWhere(pattern string) {
	w.t.Helper()
	text := "DELETE WHERE { " + pattern + " }"
	u, err := sparql.ParseUpdate(text)
	w.must(err)
	patterns := u.Ops[0].Patterns
	for _, sol := range refEvalGroup(w.oracle(), sparql.Group{Patterns: patterns}) {
		for _, pat := range patterns {
			for i, term := range pat {
				if strings.HasPrefix(term, "?") {
					pat[i] = sol[term[1:]]
				}
			}
			w.retract(inferray.Triple{S: pat[0], P: pat[1], O: pat[2]})
		}
	}
	_, err = w.leader.Update(text)
	w.must(err)
}

func (w *conformance) checkpoint() {
	w.t.Helper()
	_, err := w.leader.Checkpoint()
	w.must(err)
	w.bootstrap()
	w.agree("re-bootstrapped follower", w.follower)
}

// crash copies the leader's data directory without closing it, opens
// the copy, and continues the script on it; the follower keeps tailing.
func (w *conformance) crash() {
	w.t.Helper()
	st, _ := w.leader.DurabilityStats()
	dir := filepath.Join(w.t.TempDir(), "crashed")
	w.must(os.CopyFS(dir, os.DirFS(st.Dir)))
	r := w.open(dir)
	rs, _ := r.DurabilityStats()
	if rs.ReplayedRecords != st.WALRecords {
		w.fatalf("recovery replayed %d records, the leader had logged %d", rs.ReplayedRecords, st.WALRecords)
	}
	if rs.RecoveredFromSnapshot != (st.Generation > 0) {
		w.fatalf("recovered from an image: %v, checkpoint generation %d", rs.RecoveredFromSnapshot, st.Generation)
	}
	w.agree("recovered copy", r)
	m := w.leader.Metrics()
	w.retractions += m.Retractions
	w.splices += m.MergesSplice
	w.patched += m.OSCachePatched
	w.ts.Close()
	w.leader.Close()
	w.leader = r
	w.serve()
}

// reopen checks a fresh Open on a copy of the data directory.
func (w *conformance) reopen() {
	w.t.Helper()
	st, _ := w.leader.DurabilityStats()
	dir := filepath.Join(w.t.TempDir(), "copy")
	w.must(os.CopyFS(dir, os.DirFS(st.Dir)))
	r := w.open(dir)
	defer r.Close()
	w.agree("reopened copy", r)
}

// oracle returns the closure of the model, recomputing it when the
// model changed.
func (w *conformance) oracle() [][3]string {
	if !w.changed {
		return w.closure
	}
	id := w.dict.EncodeResource
	h := baseline.NewHashJoinEngine(w.specs)
	for tr := range w.asserted {
		h.Add(baseline.Fact{id(tr.S), id(tr.P), id(tr.O)})
	}
	h.Materialize()
	w.closure = make([][3]string, 0, h.Store.Size())
	lines := make([]string, 0, h.Store.Size())
	for _, f := range h.Store.All() {
		c := [3]string{w.dict.MustDecode(f[0]), w.dict.MustDecode(f[1]), w.dict.MustDecode(f[2])}
		w.closure = append(w.closure, c)
		lines = append(lines, c[0]+" "+c[1]+" "+c[2]+" .\n")
	}
	sort.Strings(lines)
	w.dump = strings.Join(lines, "")
	w.changed = false
	return w.closure
}

// check runs after every op.
func (w *conformance) check() {
	w.t.Helper()
	w.oracle()
	if got := sortedDump(w.t, w.leader); got != w.dump {
		w.fatalf("the leader's closure differs from the oracle's (- oracle only, + leader only):\n%s", dumpDiff(got, w.dump))
	}
	if n := w.leader.Size(); n != len(w.closure) {
		w.fatalf("Size() = %d, the oracle closure holds %d", n, len(w.closure))
	}
	w.catchUp()
	w.agree("follower", w.follower)
	if !w.cfg.encoding && w.leader.HierarchyEncoded() {
		w.fatalf("encoding-off leader reports itself encoded")
	}
}

// agree checks that got holds the leader's generation and closure, and
// that both carry nothing a recount would not find.
func (w *conformance) agree(who string, got *inferray.Reasoner) {
	w.t.Helper()
	for name, r := range map[string]*inferray.Reasoner{"leader": w.leader, who: got} {
		if err := r.CheckCarried(); err != nil {
			w.fatalf("%s: %v", name, err)
		}
		if n := r.ShadowedTypePairs(); n != 0 {
			w.fatalf("%s: %d stored type pairs are shadowed; the table must stay compact", name, n)
		}
	}
	if g, l := got.Generation(), w.leader.Generation(); g != l {
		w.fatalf("%s at generation %d, leader at %d", who, g, l)
	}
	if g, l := sortedDump(w.t, got), sortedDump(w.t, w.leader); g != l {
		w.fatalf("%s closure differs from the leader's (- leader only, + %s only):\n%s", who, who, dumpDiff(g, l))
	}
}

func (w *conformance) bootstrap() {
	w.t.Helper()
	path, _, ok, err := w.leader.SnapshotFile()
	if err != nil || !ok {
		w.fatalf("no image to bootstrap from: ok=%v err=%v", ok, err)
	}
	f, err := os.Open(path)
	w.must(err)
	defer f.Close()
	// As the wire delivers it: a stream with no size and no seek.
	w.pos, err = w.follower.RestoreImage(struct{ io.Reader }{f})
	w.must(err)
	w.bootstraps++
}

func (w *conformance) catchUp() {
	w.t.Helper()
	s, err := w.leader.StreamWAL(w.pos)
	if errors.Is(err, inferray.ErrWALTruncated) {
		w.bootstrap() // an automatic checkpoint pruned the position
		s, err = w.leader.StreamWAL(w.pos)
	}
	w.must(err)
	defer s.Close()
	for {
		kind, payload, err := s.Next()
		if err == io.EOF {
			break
		}
		w.must(err)
		batch, err := wal.DecodeBatch(payload)
		w.must(err)
		w.must(w.follower.ApplyReplicated(kind, batch))
	}
	w.pos = s.Pos()
}

// conformanceQueries: the query cache's interleaving set, then the
// encoding's virtual-table paths on the taxonomy dataset.
var conformanceQueries = []string{
	`SELECT ?s ?c WHERE { ?s ` + rdf.RDFType + ` ?c }`,
	`SELECT ?a ?b WHERE { ?a ` + rdf.RDFSSubClassOf + ` ?b }`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?s ` + rdf.RDFType + ` ?c }`,
	`ASK { ?a ` + rdf.RDFSSubPropertyOf + ` ?b }`,
	`SELECT ?x WHERE { ?x ` + rdf.RDFType + ` <Animal> }`,
	`SELECT ?c WHERE { <Dog> ` + rdf.RDFSSubClassOf + ` ?c }`,
	`SELECT ?x ?y WHERE { ?x <relatedTo> ?y }`,
	`ASK { <rex> ` + rdf.RDFType + ` <LivingThing> }`,
	`ASK { <alice> <relatedTo> <rex> }`,
	`ASK { <rex> ` + rdf.RDFType + ` <Bird> }`,
}

// query sends every conformance query over GET /query as it comes, with
// Cache-Control: no-cache, and as it comes again — a hit.
func (w *conformance) query() {
	w.t.Helper()
	for _, q := range conformanceQueries {
		body, _, gen := w.get(q, false)
		cold, _, coldGen := w.get(q, true)
		again, state, _ := w.get(q, false)
		if gen != coldGen || gen < w.leader.Generation() {
			w.fatalf("%s: generations %d / %d, the last write's %d", q, gen, coldGen, w.leader.Generation())
		}
		if !bytes.Equal(body, cold) {
			w.fatalf("%s: body differs from a cold evaluation at generation %d:\n%s\ncold:\n%s", q, gen, body, cold)
		}
		if state == "hit" {
			w.hits++
			if !bytes.Equal(again, cold) {
				w.stale++
				w.fatalf("%s: stale hit at generation %d:\n%s\ncold:\n%s", q, gen, again, cold)
			}
		}
		if got, want := rowMultiset(wireRows(w, body)), rowMultiset(refRows(w, q)); !maps.Equal(got, want) {
			w.fatalf("%s: rows differ from the oracle's:\n got %q\nwant %q", q, got, want)
		}
	}
}

func (w *conformance) get(q string, noCache bool) (body []byte, cache string, gen uint64) {
	w.t.Helper()
	req, err := http.NewRequest(http.MethodGet, w.ts.URL+"/query?query="+url.QueryEscape(q), nil)
	w.must(err)
	if noCache {
		req.Header.Set("Cache-Control", "no-cache")
	}
	resp, err := http.DefaultClient.Do(req)
	w.must(err)
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	w.must(err)
	if resp.StatusCode != http.StatusOK {
		w.fatalf("%s: status %d: %s", q, resp.StatusCode, body)
	}
	gen, err = strconv.ParseUint(resp.Header.Get("X-Inferray-Generation"), 10, 64)
	w.must(err)
	return body, resp.Header.Get("X-Inferray-Cache"), gen
}

// wireRows decodes a SPARQL JSON results body; an ASK answer is one row
// binding "ask".
func wireRows(w *conformance, body []byte) []map[string]string {
	w.t.Helper()
	var res struct {
		Boolean *bool
		Results struct {
			Bindings []map[string]struct {
				Type, Value, Datatype string
				Lang                  string `json:"xml:lang"`
			}
		}
	}
	w.must(json.Unmarshal(body, &res))
	if res.Boolean != nil {
		return []map[string]string{{"ask": strconv.FormatBool(*res.Boolean)}}
	}
	rows := make([]map[string]string, len(res.Results.Bindings))
	for i, b := range res.Results.Bindings {
		rows[i] = map[string]string{}
		for v, c := range b {
			rows[i][v] = c.Type + "|" + c.Value + "|" + c.Lang + "|" + c.Datatype
		}
	}
	return rows
}

// refRows evaluates q naively over the oracle closure, in wireRows' form.
func refRows(w *conformance, q string) []map[string]string {
	w.t.Helper()
	if ask, ok := strings.CutPrefix(q, "ASK"); ok {
		return []map[string]string{{"ask": strconv.FormatBool(len(refSelect(w.t, w.oracle(), "SELECT * WHERE"+ask)) > 0)}}
	}
	rows := refSelect(w.t, w.oracle(), q)
	for _, row := range rows {
		for v, term := range row {
			switch {
			case rdf.IsIRI(term):
				row[v] = "uri|" + term[1:len(term)-1] + "||"
			case rdf.IsBlank(term):
				row[v] = "bnode|" + term[2:] + "||"
			default:
				lex, lang, datatype, _ := rdf.SplitLiteral(term)
				row[v] = "literal|" + lex + "|" + lang + "|" + datatype
			}
		}
	}
	return rows
}

// checkCoverage runs at the end of a random script: every op kind ran,
// an automatic checkpoint and a follower re-bootstrap happened, and the
// script retracted and hit the cache, never stale.
func (w *conformance) checkCoverage() {
	w.t.Helper()
	for _, letter := range []byte(opLetters) {
		if w.counts[opNames[letter]] == 0 {
			w.t.Errorf("the script never ran %s", opNames[letter])
		}
	}
	st, _ := w.leader.DurabilityStats()
	if st.CheckpointError != "" {
		w.t.Errorf("an automatic checkpoint failed: %s", st.CheckpointError)
	}
	if forced := uint64(w.counts["Checkpoint"]); st.Generation <= forced {
		w.t.Errorf("no automatic checkpoint ran (checkpoint generation %d, %d forced)", st.Generation, forced)
	}
	if w.bootstraps <= w.counts["Checkpoint"] {
		w.t.Errorf("the follower never re-bootstrapped across an automatic checkpoint (%d bootstraps, %d forced)", w.bootstraps, w.counts["Checkpoint"])
	}
	if w.leader.Size() == 0 || w.retractions+w.leader.Metrics().Retractions == 0 {
		w.t.Errorf("degenerate script: %d triples, no retraction", w.leader.Size())
	}
	if w.hits == 0 || w.stale != 0 {
		w.t.Errorf("query cache: %d hits, %d stale", w.hits, w.stale)
	}
}

// runLUBMScript churns a LUBM base with the random op mix, drawing
// triples from the part of the dataset the base left out. Its tables
// are long enough for single triples to take the store's in-place
// paths, and the counters must say they did.
func runLUBMScript(t *testing.T, cfg scriptConfig, seed int64) {
	pool := datagen.LUBM(2500, 6)
	cut := len(pool) * 2 / 3
	rest := pool[cut:]
	w := newConformance(t, cfg)
	w.run('a', func() { w.add(pool[:cut]) })
	rng := rand.New(rand.NewSource(seed))
	w.runOps(rng, randomOps(rng, 24), func() inferray.Triple { return rest[rng.Intn(len(rest))] })
	m := w.leader.Metrics()
	if w.splices+m.MergesSplice == 0 || w.patched+m.OSCachePatched == 0 {
		t.Errorf("%d spliced merges, %d patched caches: the LUBM churn never took the in-place path",
			w.splices+m.MergesSplice, w.patched+m.OSCachePatched)
	}
}

// TestOpScriptAG is the guard script that found derived owl:sameAs links
// between a property and a resource, reduced to its two ops: 'a' declares
// a property inverse-functional, symmetric and transitive, and 'g' makes
// it equivalent to rdf:type. PRP-EQP copies its typings under its own
// name, PRP-SYMP and PRP-IFP then link it by sameAs with the marker
// classes, and EQ-REP-P must replicate its table under each of them —
// which only a term promoted to the property side has.
func TestOpScriptAG(t *testing.T) {
	p := conformanceIRI("p", 0)
	for _, frag := range []inferray.Fragment{inferray.RDFSPlus, inferray.RDFSPlusFull} {
		for _, encoding := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/encoding=%v", frag, encoding), func(t *testing.T) {
				w := newConformance(t, scriptConfig{frag: frag, encoding: encoding})
				w.run('a', func() {
					w.add([]inferray.Triple{
						{S: p, P: inferray.Type, O: inferray.InverseFunctionalProperty},
						{S: p, P: inferray.Type, O: inferray.SymmetricProperty},
						{S: p, P: inferray.Type, O: inferray.TransitiveProperty},
					})
				})
				w.run('g', func() { w.insert([]inferray.Triple{{S: p, P: inferray.EquivalentProperty, O: inferray.Type}}) })
				w.reopen()
			})
		}
	}
}

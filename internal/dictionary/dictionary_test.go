package dictionary

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"inferray/internal/datagen"
)

func TestSplitNumbering(t *testing.T) {
	d := New()
	p0 := d.EncodeProperty("<p0>")
	p1 := d.EncodeProperty("<p1>")
	r0 := d.EncodeResource("<r0>")
	r1 := d.EncodeResource("<r1>")

	if p0 != PropBase || p1 != PropBase-1 {
		t.Fatalf("property ids %d, %d: must descend from 2^32", p0, p1)
	}
	if r0 != PropBase+1 || r1 != PropBase+2 {
		t.Fatalf("resource ids %d, %d: must ascend from 2^32+1", r0, r1)
	}
	for _, id := range []uint64{p0, p1} {
		if !IsProperty(id) {
			t.Errorf("id %d should be a property", id)
		}
	}
	for _, id := range []uint64{r0, r1} {
		if IsProperty(id) {
			t.Errorf("id %d should be a resource", id)
		}
	}
}

func TestPropIndexRoundTrip(t *testing.T) {
	for i := 0; i < 1000; i++ {
		if PropIndex(PropID(i)) != i {
			t.Fatalf("index %d does not round-trip", i)
		}
	}
}

func TestEncodeIdempotent(t *testing.T) {
	d := New()
	a := d.EncodeProperty("<p>")
	if d.EncodeProperty("<p>") != a {
		t.Fatal("re-encoding a property changed its id")
	}
	if d.EncodeResource("<p>") != a {
		t.Fatal("a property term must keep its id in resource position")
	}
	r := d.EncodeResource("<r>")
	if d.EncodeResource("<r>") != r || d.EncodeProperty("<r>") != r {
		t.Fatal("resource id not stable")
	}
}

func TestDecode(t *testing.T) {
	d := New()
	terms := []string{"<a>", "<b>", `"literal value"`, "_:blank"}
	ids := make([]uint64, len(terms))
	for i, term := range terms {
		if i%2 == 0 {
			ids[i] = d.EncodeProperty(term)
		} else {
			ids[i] = d.EncodeResource(term)
		}
	}
	for i, id := range ids {
		got, ok := d.Decode(id)
		if !ok || got != terms[i] {
			t.Errorf("Decode(%d) = %q, %v; want %q", id, got, ok, terms[i])
		}
	}
	if _, ok := d.Decode(PropBase - 999); ok {
		t.Error("decoding an unregistered property id must fail")
	}
	if _, ok := d.Decode(PropBase + 999); ok {
		t.Error("decoding an unregistered resource id must fail")
	}
}

func TestMustDecodePanics(t *testing.T) {
	d := New()
	defer func() {
		if recover() == nil {
			t.Fatal("MustDecode of unknown id must panic")
		}
	}()
	d.MustDecode(12345)
}

func TestDensity(t *testing.T) {
	// The point of §5.1: after registering n properties and m resources,
	// the used id ranges are exactly [PropBase-n+1, PropBase] and
	// [PropBase+1, PropBase+m] with no holes.
	d := New()
	n, m := 100, 1000
	for i := 0; i < n; i++ {
		d.EncodeProperty(fmt.Sprintf("<p%d>", i))
	}
	for i := 0; i < m; i++ {
		d.EncodeResource(fmt.Sprintf("<r%d>", i))
	}
	if d.NumProperties() != n || d.NumResources() != m {
		t.Fatalf("counts %d/%d, want %d/%d", d.NumProperties(), d.NumResources(), n, m)
	}
	lo, hi := d.ResourceIDRange()
	if lo != PropBase+1 || hi != PropBase+1+uint64(m) {
		t.Fatalf("resource range [%d,%d) wrong", lo, hi)
	}
	if lo, k := d.IDRange(); lo != PropBase-uint64(n)+1 || k != n+m {
		t.Fatalf("id range %d+%d, want %d+%d", lo, k, PropBase-uint64(n)+1, n+m)
	}
	for i := 0; i < n; i++ {
		if term, ok := d.Decode(PropID(i)); !ok || term != fmt.Sprintf("<p%d>", i) {
			t.Fatalf("property index %d decodes to %q (%t)", i, term, ok)
		}
	}
}

func TestVocabularyPinning(t *testing.T) {
	props := []string{"<v1>", "<v2>"}
	res := []string{"<c1>"}
	d := NewWithVocabulary(props, res)
	if id, _ := d.Lookup("<v1>"); PropIndex(id) != 0 {
		t.Fatal("first vocabulary property must take index 0")
	}
	if id, _ := d.Lookup("<v2>"); PropIndex(id) != 1 {
		t.Fatal("second vocabulary property must take index 1")
	}
	if id, _ := d.Lookup("<c1>"); id != PropBase+1 {
		t.Fatal("first vocabulary resource must take the first resource id")
	}
}

// TestLookupDecodeQuick: any registered term decodes back to itself.
func TestLookupDecodeQuick(t *testing.T) {
	d := New()
	f := func(term string, isProp bool) bool {
		if term == "" {
			return true
		}
		var id uint64
		if isProp {
			id = d.EncodeProperty(term)
		} else {
			id = d.EncodeResource(term)
		}
		back, ok := d.Decode(id)
		lid, lok := d.Lookup(term)
		return ok && back == term && lok && lid == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPromoteToProperty covers the three promotion states: unseen terms
// register as properties, property terms are unchanged, and
// resource-encoded terms move to the property side with their old slot
// tombstoned.
func TestPromoteToProperty(t *testing.T) {
	d := New()

	// Unseen: plain property registration, no move.
	id, old, moved := d.PromoteToProperty("<fresh>")
	if moved || old != 0 || !IsProperty(id) {
		t.Fatalf("unseen term: id=%d old=%d moved=%v", id, old, moved)
	}

	// Already a property: identity.
	id2, _, moved2 := d.PromoteToProperty("<fresh>")
	if moved2 || id2 != id {
		t.Fatalf("re-promotion changed id: %d -> %d (moved=%v)", id, id2, moved2)
	}

	// Resource-encoded: moved, old slot tombstoned.
	rid := d.EncodeResource("<late>")
	pid, oldID, moved3 := d.PromoteToProperty("<late>")
	if !moved3 || oldID != rid || !IsProperty(pid) {
		t.Fatalf("promotion: pid=%d old=%d moved=%v (rid=%d)", pid, oldID, moved3, rid)
	}
	if got, ok := d.Lookup("<late>"); !ok || got != pid {
		t.Fatal("Lookup must return the property id after promotion")
	}
	if back, ok := d.Decode(pid); !ok || back != "<late>" {
		t.Fatal("property id must decode to the term")
	}
	if _, ok := d.Decode(rid); ok {
		t.Fatal("tombstoned resource id must no longer decode")
	}

	// EncodeResource after promotion keeps the property id.
	if got := d.EncodeResource("<late>"); got != pid {
		t.Fatal("EncodeResource must not re-register a promoted term")
	}
}

// aliases reports whether s points into the bytes of within.
func aliases(s, within string) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(within)))
	return p >= lo && p < lo+uintptr(len(within))
}

// TestDictionaryOwnsTermBytes: whatever string a term arrives in — a
// parser block, a request body — the dictionary keeps its own copy, so
// no entry (decoded term or index key) pins the caller's buffer; a
// promoted term moves without being copied again.
func TestDictionaryOwnsTermBytes(t *testing.T) {
	block := strings.Repeat("<http://example.org/some/term> ", 4)
	d := New()
	p := d.EncodeProperty(block[0:30])
	r := d.EncodeResource(block[31:61] + "x")
	moved := d.EncodeResource("<moved>" + block[:0])
	for _, id := range []uint64{p, r, moved} {
		if aliases(d.MustDecode(id), block) {
			t.Errorf("term %q still aliases the caller's block", d.MustDecode(id))
		}
	}
	before := d.MustDecode(moved)
	id, old, ok := d.PromoteToProperty("<moved>")
	if !ok || old != moved {
		t.Fatalf("promotion: id %d old %d moved %t", id, old, ok)
	}
	if after := d.MustDecode(id); unsafe.StringData(after) != unsafe.StringData(before) {
		t.Error("promotion re-copied a term the dictionary already owned")
	}
}

// TestArenaChunksKeepEarlierTerms registers over a thousand arena
// chunks' worth of terms — including one larger than any chunk — holding
// on to the string Decode returned for each as it went, and promotes one
// of them half-way. Every held string must still equal its term (a new
// chunk, an index growth, a promotion and a collection leave the bytes
// under earlier strings alone), and every term must still decode and
// look up.
func TestArenaChunksKeepEarlierTerms(t *testing.T) {
	d := New()
	huge := "<" + strings.Repeat("h", 64*chunkSize) + ">"
	const n = 100_000
	var ids []uint64
	var terms, held []string
	for i := 0; i < n; i++ {
		term := fmt.Sprintf("<http://example.org/resource/number/%d>", i)
		if i == 20_000 {
			term = huge
		}
		terms = append(terms, term)
		ids = append(ids, d.EncodeResource(term))
		held = append(held, d.MustDecode(ids[i]))
		if i == n/2 {
			pid, _, moved := d.PromoteToProperty(terms[n/4])
			if !moved {
				t.Fatal("promotion did not move the term")
			}
			ids[n/4] = pid
		}
	}
	if len(d.chunks) < 1000 {
		t.Fatalf("%d chunks: the test needs at least 1000 chunk growths", len(d.chunks))
	}
	runtime.GC()
	for i, id := range ids {
		if held[i] != terms[i] {
			t.Fatalf("string held for term %d reads %q, want %q", i, held[i], terms[i])
		}
		if got := d.MustDecode(id); got != terms[i] {
			t.Fatalf("id %d decodes to %q, want %q", id, got, terms[i])
		}
		if back, ok := d.Lookup(terms[i]); !ok || back != id {
			t.Fatalf("%q looks up to %d (%t), want %d", terms[i], back, ok, id)
		}
	}
}

// TestHashOutlivesItsDictionary: a hash taken before a dictionary exists
// — the reasoner interns a batch, hashes included, and an image install
// may swap the engine's dictionary before the batch is merged — finds
// and registers terms in it exactly as the unhashed calls do, so the
// merge can neither miss a registered term nor register one twice.
func TestHashOutlivesItsDictionary(t *testing.T) {
	terms := []string{"<p>", "<a>", "<b>", `"lit"`}
	hashes := make([]uint64, len(terms))
	for i, term := range terms {
		hashes[i] = Hash(term)
	}
	restored := sectionRoundTrip(t, NewWithVocabulary([]string{"<p>"}, []string{"<a>"}))
	for _, d := range []*Dictionary{New(), restored} {
		for i, term := range terms {
			if i == 0 {
				d.PromoteToPropertyHashed(term, hashes[i])
				continue
			}
			id := d.EncodeResourceHashed(term, hashes[i])
			if back, ok := d.LookupHashed(term, hashes[i]); !ok || back != id || d.EncodeResource(term) != id {
				t.Fatalf("%q: hashed %d, looked up %d (%t), unhashed %d", term, id, back, ok, d.EncodeResource(term))
			}
		}
		if d.NumProperties() != 1 || d.NumResources() != 3 {
			t.Fatalf("%d properties, %d resources; want 1 and 3", d.NumProperties(), d.NumResources())
		}
	}
}

// TestLookupDecodeAllocateNothing: a probe hashes in place and a decoded
// term is a view of the arena, for short terms, long ones and misses.
func TestLookupDecodeAllocateNothing(t *testing.T) {
	d := NewWithVocabulary([]string{"<p>"}, []string{"<a>"})
	long := "<" + strings.Repeat("l", 4*chunkSize) + ">"
	id := d.EncodeResource(long)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for _, term := range []string{"<p>", "<a>", long, "<missing>"} {
			got, _ := d.Lookup(term)
			s, _ := d.Decode(got)
			sink += len(s)
		}
		sink += len(d.MustDecode(id)) + len(d.MustDecode(PropBase))
	})
	if allocs != 0 {
		t.Fatalf("Lookup + Decode = %.1f allocs per round, want 0", allocs)
	}
	_ = sink
}

// TestHugeTermRoundTrips: a term over 16 MB — past any chunk and past the
// parser's statement cap — registers, decodes, looks up and survives the
// image section on either side of the split.
func TestHugeTermRoundTrips(t *testing.T) {
	huge := "<" + strings.Repeat("x", 16<<20) + ">"
	d := New()
	p := d.EncodeProperty("<p>")
	h := d.EncodeResource(huge)
	for round := 0; round < 2; round++ {
		if got := d.MustDecode(h); got != huge {
			t.Fatalf("round %d: the huge term decodes to %d bytes, want %d", round, len(got), len(huge))
		}
		if id, ok := d.Lookup(huge); !ok || id != h {
			t.Fatalf("round %d: the huge term looks up to %d (%t), want %d", round, id, ok, h)
		}
		if d.MustDecode(p) != "<p>" {
			t.Fatalf("round %d: <p> lost", round)
		}
		d = sectionRoundTrip(t, d)
	}
	if pid, old, moved := d.PromoteToProperty(huge); !moved || old != h || d.MustDecode(pid) != huge {
		t.Fatal("the huge term did not promote intact")
	}
}

// sectionRoundTrip writes d's image section and reads it back.
func sectionRoundTrip(t testing.TB, d *Dictionary) *Dictionary {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	d.WriteSection(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSection(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("ReadSection left %d bytes of its section unread", buf.Len())
	}
	return back
}

// TestDictionaryOverheadBudget pins what the dictionary costs beyond the
// bytes of its terms — refs, index, arena slack — on LUBM(20k), encoded
// the way the benchmark's dictionary probe does it: at most 20 bytes per
// term (a map plus two string slices cost 64). CI's bench-smoke job runs
// it as a gate.
func TestDictionaryOverheadBudget(t *testing.T) {
	triples := datagen.LUBM(20_000, 1)
	before := liveHeap()
	d := New()
	for _, tr := range triples {
		d.EncodeProperty(tr.P)
		d.EncodeResource(tr.S)
		d.EncodeResource(tr.O)
	}
	after := liveHeap()
	runtime.KeepAlive(triples)
	fp := d.Footprint()
	perTerm := (float64(after) - float64(before) - float64(fp.TermBytes)) / float64(fp.Terms)
	t.Logf("%d terms, %.1f term bytes each; overhead %.1f B/term (refs %.1f, index %.1f, arena slack %.1f)",
		fp.Terms, float64(fp.TermBytes)/float64(fp.Terms), perTerm,
		float64(fp.RefBytes)/float64(fp.Terms), float64(fp.IndexBytes)/float64(fp.Terms),
		float64(fp.ArenaBytes-fp.TermBytes)/float64(fp.Terms))
	if perTerm > 20 {
		t.Fatalf("dictionary overhead %.1f B/term beyond its term bytes, budget is 20", perTerm)
	}
	runtime.KeepAlive(d)
}

// liveHeap is the heap in use once everything unreachable is collected
// (the second cycle frees what the first only swept), as the benchmark
// reads it.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestReserveKeepsEntries: Reserve only resizes the index.
func TestReserveKeepsEntries(t *testing.T) {
	d := NewWithVocabulary([]string{"<p>", "<q>"}, []string{"<a>", "<b>"})
	d.Reserve(1)      // below the doubling threshold: left alone
	d.Reserve(10_000) // rebuilt
	for term, want := range map[string]uint64{"<p>": PropBase, "<q>": PropBase - 1, "<a>": PropBase + 1, "<b>": PropBase + 2} {
		if got, ok := d.Lookup(term); !ok || got != want {
			t.Errorf("%s = %d (%t) after Reserve, want %d", term, got, ok, want)
		}
	}
	if d.EncodeResource("<c>") != PropBase+3 || d.NumResources() != 3 {
		t.Error("numbering did not continue after Reserve")
	}
}

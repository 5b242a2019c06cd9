package dictionary

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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
	seen := 0
	d.Properties(func(id uint64, term string) bool {
		if PropIndex(id) != seen {
			t.Fatalf("property iteration out of order at %d", seen)
		}
		seen++
		return true
	})
	if seen != n {
		t.Fatalf("iterated %d properties, want %d", seen, n)
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

// TestArenaChunksKeepEarlierTerms registers several arena chunks' worth
// of terms — including one larger than any chunk — and checks every
// term still decodes and looks up: starting a new chunk must leave the
// substrings of the old ones intact.
func TestArenaChunksKeepEarlierTerms(t *testing.T) {
	d := New()
	d.Reserve(50_000)
	huge := "<" + strings.Repeat("h", 2*maxChunk) + ">"
	var ids []uint64
	var terms []string
	for i := 0; i < 50_000; i++ {
		term := fmt.Sprintf("<http://example.org/resource/number/%d>", i)
		if i == 20_000 {
			term = huge
		}
		terms = append(terms, term)
		ids = append(ids, d.EncodeResource(term))
	}
	for i, id := range ids {
		if got := d.MustDecode(id); got != terms[i] {
			t.Fatalf("id %d decodes to %q, want %q", id, got, terms[i])
		}
		if back, ok := d.Lookup(terms[i]); !ok || back != id {
			t.Fatalf("%q looks up to %d (%t), want %d", terms[i], back, ok, id)
		}
	}
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

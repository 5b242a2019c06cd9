package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/store"
)

func buildFixture() (*dictionary.Dictionary, *store.Store) {
	d := dictionary.NewWithVocabulary(rdf.VocabularyProperties, rdf.VocabularyResources)
	p := dictionary.PropIndex(d.EncodeProperty("<p>"))
	q := dictionary.PropIndex(d.EncodeProperty("<q>"))
	a := d.EncodeResource("<a>")
	b := d.EncodeResource("<b>")
	lit := d.EncodeResource(`"a literal with \n escapes"@en`)
	st := store.New(d.NumProperties())
	st.Add(p, a, b)
	st.Add(p, a, lit)
	st.Add(p, b, a)
	st.Add(q, b, lit)
	st.Normalize()
	// ⟨a p lit⟩ and ⟨b p a⟩ are asserted, the rest derived; q holds no mark.
	st.Table(p).Mark([]uint64{a, lit, b, a})
	return d, st
}

// marksOf lists a table's marks, one bool per pair.
func marksOf(t *store.Table) []bool {
	m := make([]bool, t.Size())
	for i := range m {
		m[i] = t.Marked(i)
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	d, st := buildFixture()
	var buf bytes.Buffer
	if err := Write(&buf, d, st, false); err != nil {
		t.Fatal(err)
	}
	d2, st2, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumProperties() != d.NumProperties() || d2.NumResources() != d.NumResources() {
		t.Fatal("dictionary sizes changed")
	}
	// Every term keeps its ID.
	d.Properties(func(id uint64, term string) bool {
		got, ok := d2.Lookup(term)
		if !ok || got != id {
			t.Fatalf("property %q: id %d -> %d", term, id, got)
		}
		return true
	})
	if st2.Size() != st.Size() {
		t.Fatalf("store size %d -> %d", st.Size(), st2.Size())
	}
	marked := 0
	st.ForEachTable(func(pidx int, tab *store.Table) bool {
		if !reflect.DeepEqual(st2.Table(pidx).Pairs(), tab.Pairs()) {
			t.Fatalf("table %d differs", pidx)
		}
		if got, want := marksOf(st2.Table(pidx)), marksOf(tab); !reflect.DeepEqual(got, want) {
			t.Fatalf("table %d marks %v, want %v", pidx, got, want)
		}
		if (st2.Table(pidx).Marks() == nil) != (tab.Marks() == nil) {
			t.Fatalf("table %d: an unmarked table must restore with nil marks", pidx)
		}
		for _, m := range marksOf(tab) {
			if m {
				marked++
			}
		}
		return true
	})
	if marked != 2 {
		t.Fatalf("fixture holds %d marked pairs, want 2", marked)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := dictionary.New()
		nProps := 1 + rng.Intn(5)
		for i := 0; i < nProps; i++ {
			d.EncodeProperty(randTerm(rng))
		}
		nRes := rng.Intn(30)
		for i := 0; i < nRes; i++ {
			d.EncodeResource(randTerm(rng))
		}
		st := store.New(d.NumProperties())
		lo, hi := d.ResourceIDRange()
		for i := 0; i < rng.Intn(80); i++ {
			if hi == lo {
				break
			}
			st.Add(rng.Intn(nProps),
				lo+uint64(rng.Intn(int(hi-lo))),
				lo+uint64(rng.Intn(int(hi-lo))))
		}
		st.Normalize()
		st.ForEachTable(func(_ int, tab *store.Table) bool {
			var sub []uint64
			for i, p := 0, tab.Pairs(); i < len(p); i += 2 {
				if rng.Intn(3) == 0 {
					sub = append(sub, p[i], p[i+1])
				}
			}
			if len(sub) > 0 {
				tab.Mark(sub)
			}
			return true
		})

		var buf bytes.Buffer
		if err := Write(&buf, d, st, false); err != nil {
			return false
		}
		d2, st2, _, err := Read(&buf)
		if err != nil {
			return false
		}
		if st2.Size() != st.Size() || d2.NumResources() != d.NumResources() {
			return false
		}
		ok := true
		st.ForEachTable(func(pidx int, tab *store.Table) bool {
			t2 := st2.Table(pidx)
			if t2 == nil || !reflect.DeepEqual(t2.Pairs(), tab.Pairs()) || !reflect.DeepEqual(marksOf(t2), marksOf(tab)) {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randTerm generates unique-ish surface forms, some with non-ASCII.
func randTerm(rng *rand.Rand) string {
	const chars = "abcdefghijklmnopqrstuvwxyz0123456789é∀"
	n := 3 + rng.Intn(20)
	b := make([]byte, 0, n+2)
	b = append(b, '<')
	for i := 0; i < n; i++ {
		b = append(b, chars[rng.Intn(len(chars))])
	}
	b = append(b, byte('0'+rng.Intn(10)), byte('0'+rng.Intn(10)), '>')
	return string(b)
}

func TestRejectsCorruptInput(t *testing.T) {
	d, st := buildFixture()
	var buf bytes.Buffer
	if err := Write(&buf, d, st, false); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad-magic": append([]byte("NOPE"), img[4:]...),
		"bad-version": func() []byte {
			c := append([]byte{}, img...)
			c[4] = 0xFF
			return c
		}(),
		"truncated": img[:len(img)/2],
	}
	for name, data := range cases {
		if _, _, _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

func TestCompression(t *testing.T) {
	// Dense sequential pairs must compress far below 16 bytes/triple.
	d := dictionary.New()
	p := dictionary.PropIndex(d.EncodeProperty("<p>"))
	st := store.New(1)
	base := dictionary.PropBase + 1
	n := 10000
	for i := 0; i < n; i++ {
		d.EncodeResource(randFixed(i))
		st.Add(p, base+uint64(i), base+uint64(i)+1)
	}
	st.Normalize()
	var withTable, withoutTable bytes.Buffer
	if err := Write(&withTable, d, st, false); err != nil {
		t.Fatal(err)
	}
	if err := Write(&withoutTable, d, store.New(1), false); err != nil {
		t.Fatal(err)
	}
	pairBytes := withTable.Len() - withoutTable.Len()
	if perTriple := float64(pairBytes) / float64(n); perTriple > 8 {
		t.Errorf("%.1f bytes/triple; delta encoding ineffective (raw is 16)", perTriple)
	}
}

func randFixed(i int) string {
	return "<http://example.org/resource/" + string(rune('a'+i%26)) + itoa(i) + ">"
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [12]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestRoundTripWithTombstone: a dictionary slot vacated by
// PromoteToProperty must survive write/read with the numbering intact.
func TestRoundTripWithTombstone(t *testing.T) {
	d := dictionary.New()
	d.EncodeProperty("<p>")
	rBefore := d.EncodeResource("<moved>")
	keep := d.EncodeResource("<kept>")
	pid, _, moved := d.PromoteToProperty("<moved>")
	if !moved {
		t.Fatal("setup: promotion did not move the term")
	}

	st := store.New(d.NumProperties())
	st.Add(dictionary.PropIndex(pid), keep, keep)
	st.Normalize()

	var buf bytes.Buffer
	if err := Write(&buf, d, st, false); err != nil {
		t.Fatalf("Write with tombstone: %v", err)
	}
	d2, st2, _, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read with tombstone: %v", err)
	}
	if id, ok := d2.Lookup("<kept>"); !ok || id != keep {
		t.Fatalf("<kept> id changed across round trip: %d ok=%v", id, ok)
	}
	if id, ok := d2.Lookup("<moved>"); !ok || id != pid {
		t.Fatalf("promoted term id changed: %d ok=%v (want %d)", id, ok, pid)
	}
	if _, ok := d2.Decode(rBefore); ok {
		t.Fatal("tombstoned slot must stay non-decodable after restore")
	}
	if !st2.Contains(dictionary.PropIndex(pid), keep, keep) {
		t.Fatal("store content lost")
	}
}

// TestReadRefusesOtherStreamVersions: version 5 is the only stream this
// build reads. The retired layouts (1–4; 4 carried the asserted triples
// as a second section) and a future one are refused by the version
// check, with an error naming the version found and the version
// supported — never parsed under the current layout.
func TestReadRefusesOtherStreamVersions(t *testing.T) {
	d, st := buildFixture()
	var buf bytes.Buffer
	if err := Write(&buf, d, st, false); err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{1, 2, 3, 4, version + 1} {
		img := append([]byte(nil), buf.Bytes()...)
		img[4] = v
		_, _, _, err := Read(bytes.NewReader(img))
		if err == nil {
			t.Fatalf("version-%d stream accepted", v)
		}
		for _, want := range []string{fmt.Sprintf("version %d", v), fmt.Sprintf("version %d", version)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version-%d refusal %q does not mention %q", v, err, want)
			}
		}
	}
}

// TestEncodedFlagRoundTrip: the flags word round-trips, and unknown
// flag bits are rejected rather than silently dropped.
func TestEncodedFlagRoundTrip(t *testing.T) {
	d, st := buildFixture()
	var buf bytes.Buffer
	if err := Write(&buf, d, st, true); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if _, _, encoded, err := Read(bytes.NewReader(img)); err != nil || !encoded {
		t.Fatalf("encoded flag lost: encoded=%v err=%v", encoded, err)
	}
	bad := append([]byte{}, img...)
	bad[8] |= 0x80 // unknown flag bit
	if _, _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("unknown flag bits accepted")
	}
}

// TestReadRefusesWhatItWouldHaveToRepair: marks are positional, so a
// table that is not strictly ⟨s,o⟩-ascending, or mark words reaching
// past the last pair, are refused with the table named — a bare stream
// has no CRC, and re-sorting would hand the marks to the wrong pairs.
func TestReadRefusesWhatItWouldHaveToRepair(t *testing.T) {
	d, good := buildFixture()
	p, ok := d.Lookup("<p>")
	if !ok {
		t.Fatal("fixture lost <p>")
	}
	pidx := dictionary.PropIndex(p)
	pairs := good.Table(pidx).Pairs()
	a, b, lit := pairs[0], pairs[1], pairs[3]
	for name, c := range map[string]struct {
		pairs, marks []uint64
		want         string
	}{
		"out of order":    {[]uint64{b, a, a, b}, nil, "is not above"},
		"duplicate":       {[]uint64{a, b, a, b}, nil, "is not above"},
		"objects descend": {[]uint64{a, lit, a, b}, nil, "is not above"},
		"mark past end":   {[]uint64{a, b, a, lit}, []uint64{1 << 2}, "past the last of 2 pairs"},
	} {
		st := store.New(d.NumProperties())
		st.Ensure(pidx).Restore(c.pairs, c.marks, 1) // Restore trusts its caller; Read must not
		var buf bytes.Buffer
		if err := Write(&buf, d, st, false); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := Read(&buf)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		for _, want := range []string{fmt.Sprintf("table %d", pidx), c.want} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: refusal %q does not mention %q", name, err, want)
			}
		}
	}
}

// failAfter accepts n bytes and then fails every write.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteReportsWriterFailure: Write checks its buffered writer once,
// at the final Flush; wherever in the stream the underlying writer
// fails, that first error is what Write returns.
func TestWriteReportsWriterFailure(t *testing.T) {
	d := dictionary.New()
	p := dictionary.PropIndex(d.EncodeProperty("<p>"))
	st := store.New(1)
	base := dictionary.PropBase + 1
	for i := 0; i < 20000; i++ { // several buffers' worth of terms and pairs
		d.EncodeResource(randFixed(i))
		st.Add(p, base+uint64(i), base+uint64(i))
	}
	st.Normalize()
	var whole bytes.Buffer
	if err := Write(&whole, d, st, false); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	for _, n := range []int{0, 3, 1 << 16, whole.Len() / 2, whole.Len() - 1} {
		if err := Write(&failAfter{n: n, err: boom}, d, st, false); !errors.Is(err, boom) {
			t.Errorf("writer failing after %d of %d bytes: Write returned %v", n, whole.Len(), err)
		}
	}
	if err := Write(&failAfter{n: whole.Len(), err: boom}, d, st, false); err != nil {
		t.Errorf("writer with exactly enough room: %v", err)
	}
}

package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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

// testMeta is a header with every field set to something a zero value
// would not produce.
var testMeta = Meta{
	Generation:       3,
	StoreGeneration:  42,
	CreatedUnix:      1700000000,
	Triples:          4,
	Fragment:         "rdfs-default",
	HierarchyEncoded: true,
}

// image serializes the fixture under testMeta.
func image(t testing.TB) []byte {
	t.Helper()
	d, st := buildFixture()
	var buf bytes.Buffer
	if err := Write(&buf, d, st, testMeta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seal closes body with its CRC-32C trailer, as Write does: what lets a
// test patch a field and still reach the parser.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, castagnoli))
}

// sectionsAt is where the dictionary and table sections start in an
// image written under testMeta: past the 44 fixed header bytes and the
// length-prefixed fragment name.
var sectionsAt = 44 + 4 + len(testMeta.Fragment)

// tablesAt is where the table sections start in an image of d written
// under testMeta: past its dictionary section.
func tablesAt(d *dictionary.Dictionary) int {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	d.WriteSection(w)
	w.Flush()
	return sectionsAt + buf.Len()
}

// dictSection hand-builds a dictionary section — what WriteSection would
// write for these terms, unless blobLen says otherwise — so a test can
// feed the reader what no dictionary would produce.
func dictSection(blobLen uint64, props, res []string) []byte {
	terms := append(append([]string(nil), props...), res...)
	lengths := make([]int, len(terms))
	for i, term := range terms {
		lengths[i] = len(term)
	}
	sec := sectionHead(len(props), len(res), blobLen, lengths...)
	for _, term := range terms {
		sec = append(sec, term...)
	}
	return sec
}

// sectionHead is a dictionary section up to its blob: the counts, the
// blob length and the term lengths.
func sectionHead(nProps, nRes int, blobLen uint64, lengths ...int) []byte {
	le := binary.LittleEndian
	sec := le.AppendUint32(nil, uint32(nProps))
	sec = le.AppendUint32(sec, uint32(nRes))
	sec = le.AppendUint64(sec, blobLen)
	for _, n := range lengths {
		sec = binary.AppendUvarint(sec, uint64(n))
	}
	return sec
}

// dictionaryBody is the body of an image (no trailer) that holds a
// hand-built dictionary section and no tables.
func dictionaryBody(t testing.TB, section []byte) []byte {
	body := append([]byte(nil), image(t)[:sectionsAt]...)
	binary.LittleEndian.PutUint64(body[36:], 0) // triples
	body = append(body, section...)
	return binary.LittleEndian.AppendUint32(body, 0) // numTables
}

// retiredFixtures synthesizes the layouts this format replaced from the
// fixture's current bytes, so they track the writer instead of a stale
// blob: the version-6 image (the dictionary as length-prefixed strings,
// one per term), the bare version-5 stream around the same sections (its
// own magic, no meta, no checksum) and the version-2 file that wrapped
// it.
func retiredFixtures(img []byte) (imageV6, streamV5, fileV2 []byte) {
	le := binary.LittleEndian
	d, _ := buildFixture()
	// Versions 5 and 6 stored the dictionary as its two counts and then
	// every term as a length-prefixed string, a tombstone as the empty one.
	var sections []byte
	sections = le.AppendUint32(sections, uint32(d.NumProperties()))
	sections = le.AppendUint32(sections, uint32(d.NumResources()))
	appendTerm := func(term string) {
		sections = le.AppendUint32(sections, uint32(len(term)))
		sections = append(sections, term...)
	}
	for i := 0; i < d.NumProperties(); i++ {
		appendTerm(d.MustDecode(dictionary.PropID(i)))
	}
	lo, hi := d.ResourceIDRange()
	for id := lo; id < hi; id++ {
		term, _ := d.Decode(id) // "" for a tombstone
		appendTerm(term)
	}
	sections = append(sections, img[tablesAt(d):len(img)-4]...)

	imageV6 = append([]byte(nil), img[:sectionsAt]...)
	le.PutUint32(imageV6[4:], 6)
	imageV6 = seal(append(imageV6, sections...))

	streamV5 = le.AppendUint32([]byte("IFRY"), 5)
	streamV5 = append(streamV5, img[8:12]...) // flags
	streamV5 = append(streamV5, sections...)

	fileV2 = le.AppendUint32([]byte("IFRI"), 2)
	fileV2 = le.AppendUint64(fileV2, testMeta.Generation)
	fileV2 = le.AppendUint64(fileV2, uint64(testMeta.CreatedUnix))
	fileV2 = le.AppendUint64(fileV2, testMeta.Triples)
	fileV2 = le.AppendUint64(fileV2, testMeta.StoreGeneration)
	fileV2 = append(fileV2, img[44:sectionsAt]...) // fragment
	fileV2 = append(fileV2, streamV5...)
	return imageV6, streamV5, seal(fileV2)
}

func TestRoundTrip(t *testing.T) {
	d, st := buildFixture()
	d2, st2, meta, err := Read(bytes.NewReader(image(t)))
	if err != nil {
		t.Fatal(err)
	}
	if meta != testMeta {
		t.Fatalf("meta = %+v, want %+v", meta, testMeta)
	}
	if d2.NumProperties() != d.NumProperties() || d2.NumResources() != d.NumResources() {
		t.Fatal("dictionary sizes changed")
	}
	// Every term keeps its ID.
	_, hi := d.ResourceIDRange()
	for id := dictionary.PropID(d.NumProperties() - 1); id < hi; id++ {
		term := d.MustDecode(id)
		if got, ok := d2.Lookup(term); !ok || got != id {
			t.Fatalf("term %q: id %d -> %d", term, id, got)
		}
	}
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
		if err := Write(&buf, d, st, Meta{}); err != nil {
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

// TestRejectsCorruptInput: the trailer covers every byte, so one flipped
// bit anywhere — inside a term string, where no parser check can see it,
// included — a cut at any length, and anything after the trailer are all
// refused.
func TestRejectsCorruptInput(t *testing.T) {
	img := image(t)
	if _, _, _, err := Read(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	for i := range img {
		bad := append([]byte(nil), img...)
		bad[i] ^= 0x10
		if _, _, _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Errorf("byte %d of %d flipped: accepted", i, len(img))
		}
		if _, _, _, err := Read(bytes.NewReader(img[:i])); err == nil {
			t.Errorf("cut at %d of %d bytes: accepted", i, len(img))
		}
	}
	inTerm := bytes.Index(img, []byte("a literal")) // flips 'a' to 'q': still a fine term
	bad := append([]byte(nil), img...)
	bad[inTerm] ^= 0x10
	if _, _, _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Errorf("flip inside a term string: %v, want a CRC mismatch", err)
	}
	if _, _, _, err := Read(bytes.NewReader(append(img[:len(img):len(img)], 0))); err == nil || !strings.Contains(err.Error(), "after the checksum") {
		t.Errorf("byte after the trailer: %v", err)
	}
	if _, _, _, err := Read(bytes.NewReader(append([]byte("NOPE"), img[4:]...))); err == nil {
		t.Error("bad magic accepted")
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
	if err := Write(&withTable, d, st, Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := Write(&withoutTable, d, store.New(1), Meta{}); err != nil {
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
	if err := Write(&buf, d, st, Meta{}); err != nil {
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

// TestReadRefusesOtherStreamVersions: there is one format and no
// migration. The three layouts it replaced — the version-6 image with
// one string per term, the bare version-5 stream and the version-2 file
// around it — and any other version number under the current magic,
// retired or future, are refused by the one header check with the
// version found and the version supported named; none is parsed under
// the current layout, whole and checksum-valid as it is.
func TestReadRefusesOtherStreamVersions(t *testing.T) {
	img := image(t)
	imageV6, streamV5, fileV2 := retiredFixtures(img)
	cases := map[uint32][]byte{6: imageV6, 5: streamV5, 2: fileV2}
	for _, v := range []uint32{1, 3, 4, version + 1} {
		patched := append([]byte(nil), img[:len(img)-4]...)
		binary.LittleEndian.PutUint32(patched[4:], v)
		cases[v] = seal(patched)
	}
	for v, data := range cases {
		_, _, _, err := Read(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("version-%d image accepted", v)
		}
		for _, want := range []string{fmt.Sprintf("version %d;", v), fmt.Sprintf("version %d", version)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version-%d refusal %q does not mention %q", v, err, want)
			}
		}
	}
}

// TestFileMetaVersions: WriteFile / ReadFile add only the path — the
// header round-trips through a file, and a refused file (here the
// retired version-2 layout) is named in the error and left untouched.
func TestFileMetaVersions(t *testing.T) {
	dir := t.TempDir()
	d, st := buildFixture()
	path := filepath.Join(dir, "current.img")
	if err := WriteFile(path, d, st, testMeta); err != nil {
		t.Fatal(err)
	}
	if _, _, got, err := ReadFile(path); err != nil || got != testMeta {
		t.Fatalf("meta = %+v, err = %v", got, err)
	}
	if raw, _ := os.ReadFile(path); !bytes.Equal(raw[:44], image(t)[:44]) {
		t.Error("WriteFile and Write disagree on the header bytes")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}

	_, _, fileV2 := retiredFixtures(image(t))
	old := filepath.Join(dir, "v2.img")
	if err := os.WriteFile(old, fileV2, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := ReadFile(old)
	if err == nil {
		t.Fatal("version-2 file accepted")
	}
	for _, want := range []string{old, "version 2;", fmt.Sprintf("version %d", version)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not mention %q", err, want)
		}
	}
	if after, _ := os.ReadFile(old); !bytes.Equal(after, fileV2) {
		t.Error("refused image was modified")
	}
}

// TestEncodedFlagRoundTrip: the flags word round-trips both ways, and
// unknown flag bits are rejected rather than silently dropped.
func TestEncodedFlagRoundTrip(t *testing.T) {
	d, st := buildFixture()
	for _, encoded := range []bool{true, false} {
		var buf bytes.Buffer
		if err := Write(&buf, d, st, Meta{HierarchyEncoded: encoded}); err != nil {
			t.Fatal(err)
		}
		if _, _, meta, err := Read(&buf); err != nil || meta.HierarchyEncoded != encoded {
			t.Fatalf("encoded flag %v read back as %v (err %v)", encoded, meta.HierarchyEncoded, err)
		}
	}
	img := image(t)
	bad := append([]byte(nil), img[:len(img)-4]...)
	bad[8] |= 0x80 // unknown flag bit
	if _, _, _, err := Read(bytes.NewReader(seal(bad))); err == nil || !strings.Contains(err.Error(), "unknown flags") {
		t.Errorf("unknown flag bits: %v", err)
	}
}

// TestReadRefusesWhatItWouldHaveToRepair: marks are positional, so a
// table that is not strictly ⟨s,o⟩-ascending, or mark words reaching
// past the last pair, are refused with the table named — a checksum
// says nothing about what a writer was handed, and re-sorting would give
// the marks to the wrong pairs.
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
		if err := Write(&buf, d, st, Meta{}); err != nil {
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

// TestReadRefusesBadDictionary: the dictionary section is rebuilt, not
// replayed, so what a dictionary could never hold is refused — a term
// registered twice, on one side or across the two; an empty property
// term; lengths that do not add up to the blob — and a blob the stream
// cannot back is refused after at most one arena chunk, however much
// it claims, short terms or one long one.
func TestReadRefusesBadDictionary(t *testing.T) {
	for name, c := range map[string]struct {
		section []byte
		want    string
	}{
		"duplicate resource":     {dictSection(9, []string{"<p>"}, []string{"<a>", "<a>"}), `term "<a>" registered twice`},
		"property twice":         {dictSection(9, []string{"<p>", "<q>"}, []string{"<p>"}), `term "<p>" registered twice`},
		"empty property":         {dictSection(3, []string{"<p>", ""}, []string{"<a>"}), "property term 1 is empty"},
		"lengths short of blob":  {dictSection(7, []string{"<p>"}, []string{"<a>"}), "sum to 6 bytes, blob holds 7"},
		"lengths past the blob":  {dictSection(5, []string{"<p>"}, []string{"<a>"}), "overrun the 5-byte blob"},
		"tombstone is not empty": {dictSection(3, []string{"<p>"}, []string{""}), ""},
	} {
		_, _, _, err := Read(bytes.NewReader(seal(dictionaryBody(t, c.section))))
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want a refusal mentioning %q", name, err, c.want)
		}
	}

	// Terms the stream never delivers — 10 MB of short ones, and one of
	// 1 GB — after "<p>" and 100 bytes of the next term have arrived. Each
	// is refused having allocated a sliver of what it claims.
	short := make([]int, 10_001)
	for i := range short {
		short[i] = 1000
	}
	short[0] = 3
	for name, section := range map[string][]byte{
		"short terms": sectionHead(1, 10_000, 3+10_000*1000, short...),
		"one long":    sectionHead(1, 1, 3+1<<30, 3, 1<<30),
	} {
		stream := append(image(t)[:sectionsAt:sectionsAt], section...)
		stream = append(stream, "<p>"...)
		stream = append(stream, strings.Repeat("x", 100)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := Read(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "dictionary blob") {
			t.Errorf("%s: %v, want a cut dictionary blob", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: reading allocated %d bytes", name, grew)
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
	if err := Write(&whole, d, st, Meta{}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	for _, n := range []int{0, 3, 1 << 16, whole.Len() / 2, whole.Len() - 1} {
		if err := Write(&failAfter{n: n, err: boom}, d, st, Meta{}); !errors.Is(err, boom) {
			t.Errorf("writer failing after %d of %d bytes: Write returned %v", n, whole.Len(), err)
		}
	}
	if err := Write(&failAfter{n: whole.Len(), err: boom}, d, st, Meta{}); err != nil {
		t.Errorf("writer with exactly enough room: %v", err)
	}
}

package snapshot

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/store"
)

// FuzzRead: arbitrary bytes fed to the one image reader must either
// round into a consistent (dictionary, store) pair or return an error —
// never panic, and never allocate proportionally to a corrupt header's
// claims instead of to the actual input. Each input is tried as it
// stands and again sealed with the checksum recomputed over it, so a
// mutated body still reaches the parser instead of dying at the trailer.
func FuzzRead(f *testing.F) {
	// Seeds, as bodies (an image minus its trailer): a real image, the
	// empty and near-empty prefixes, and mutants that aim at each
	// validation branch. The same seeds are checked in under
	// testdata/fuzz/FuzzRead for CI's smoke mode.
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed.body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // keep iterations fast
		}
		for _, img := range [][]byte{data, seal(data)} {
			d, st, _, err := Read(bytes.NewReader(img))
			if err != nil {
				continue
			}
			// Accepted input must be self-consistent: every stored ID
			// decodes (Read validates this so restored stores can never
			// panic in MustDecode), every table is strictly
			// ⟨s,o⟩-ascending, and no table holds more marks than pairs.
			if d == nil || st == nil {
				t.Fatal("nil result without error")
			}
			st.ForEachTable(func(pidx int, tab *store.Table) bool {
				p := tab.Pairs()
				for i := 0; i < len(p); i += 2 {
					d.MustDecode(p[i])
					d.MustDecode(p[i+1])
					if i > 0 && (p[i] < p[i-2] || (p[i] == p[i-2] && p[i+1] <= p[i-1])) {
						t.Fatalf("table %d accepted out of order at pair %d", pidx, i/2)
					}
				}
				marked := 0
				for _, w := range tab.Marks() {
					marked += bits.OnesCount64(w)
				}
				if marked > tab.Size() {
					t.Fatalf("table %d: %d marks on %d pairs", pidx, marked, tab.Size())
				}
				return true
			})
		}
	})
}

// fuzzSeed is one named seed body; the name is its corpus file.
type fuzzSeed struct {
	name string
	body []byte
}

func fuzzSeeds(t testing.TB) []fuzzSeed {
	img := image(t)
	body := img[:len(img)-4]
	imageV6, streamV5, fileV2 := retiredFixtures(img)
	huge := append([]byte(nil), body...)
	huge[sectionsAt+1] = 0xFF // absurd numProps
	hugeBlob := append([]byte(nil), body...)
	hugeBlob[sectionsAt+13] = 0x40 // absurd blobLen
	v4 := append([]byte(nil), body...)
	binary.LittleEndian.PutUint32(v4[4:], 4)
	seeds := []fuzzSeed{
		{"valid-image", body},
		{"empty", nil},
		{"magic-only", []byte(magic)},
		{"truncated", body[:len(body)/2]},
		{"huge-numprops", huge},
		{"huge-bloblen", hugeBlob},
		{"version-2-image", fileV2},
		{"version-4-image", v4},
		{"bare-v5-stream", streamV5},
		{"version-6-image", imageV6[:len(imageV6)-4]},
		// What the dictionary's one-pass index rebuild must refuse.
		{"duplicate-term", dictionaryBody(t, dictSection(9, []string{"<p>"}, []string{"<a>", "<a>"}))},
		{"empty-property", dictionaryBody(t, dictSection(3, []string{"<p>", ""}, []string{"<a>"}))},
	}
	// What Read must refuse rather than repair: a table out of order, and
	// mark words reaching past the last pair.
	d, st := buildFixture()
	pid, _ := d.Lookup("<p>")
	pidx := dictionary.PropIndex(pid)
	pp := st.Table(pidx).Pairs()
	for _, bad := range []struct {
		name         string
		pairs, marks []uint64
	}{
		{"unsorted-table", []uint64{pp[2], pp[3], pp[0], pp[1]}, nil},
		{"mark-past-end", pp[:2], []uint64{1 << 7}},
	} {
		crafted := store.New(d.NumProperties())
		crafted.Ensure(pidx).Restore(bad.pairs, bad.marks, 1)
		var cb bytes.Buffer
		if err := Write(&cb, d, crafted, testMeta); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, fuzzSeed{bad.name, cb.Bytes()[:cb.Len()-4]})
	}
	return seeds
}

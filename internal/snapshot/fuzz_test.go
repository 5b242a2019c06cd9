package snapshot

import (
	"bytes"
	"math/bits"
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/store"
)

// FuzzRead: arbitrary bytes fed to the snapshot stream parser must
// either round into a consistent (dictionary, store) pair or return an
// error — never panic, and never allocate proportionally to a corrupt
// header's claims instead of to the actual input.
func FuzzRead(f *testing.F) {
	// Seeds: a real image, the empty and near-empty prefixes, and
	// mutants that aim at each validation branch. The same seeds are
	// checked in under testdata/fuzz/FuzzRead for CI's smoke mode.
	d, st := buildFixture()
	var buf bytes.Buffer
	if err := Write(&buf, d, st, false); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	f.Add([]byte{})
	f.Add([]byte("IFRY"))
	f.Add(img[:len(img)/2])
	huge := append([]byte(nil), img...)
	huge[12] = 0xFF // absurd numProps
	f.Add(huge)
	old := append([]byte(nil), img...)
	old[4] = 4 // a retired stream version: refused, never parsed
	f.Add(old)
	// What Read must refuse rather than repair: a table out of order, and
	// mark words reaching past the last pair.
	pid, _ := d.Lookup("<p>")
	pidx := dictionary.PropIndex(pid)
	pp := st.Table(pidx).Pairs()
	for _, bad := range [][2][]uint64{
		{{pp[2], pp[3], pp[0], pp[1]}, nil},
		{pp[:2], {1 << 7}},
	} {
		crafted := store.New(d.NumProperties())
		crafted.Ensure(pidx).Restore(bad[0], bad[1], 1)
		var cb bytes.Buffer
		if err := Write(&cb, d, crafted, false); err != nil {
			f.Fatal(err)
		}
		f.Add(cb.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // size is bounded by callers (files); keep iterations fast
		}
		d, st, _, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must be self-consistent: every stored ID
		// decodes (Read validates this so restored stores can never
		// panic in MustDecode), every table is strictly ⟨s,o⟩-ascending,
		// and no table holds more marks than pairs.
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
	})
}

package snapshot

import (
	"bytes"
	"testing"
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
	if err := Write(&buf, d, st, false, nil); err != nil {
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
	old[4] = 2 // a retired stream version: refused, never parsed
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // size is bounded by callers (files); keep iterations fast
		}
		d, st, _, _, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must be self-consistent: every stored ID
		// decodes (Read validates this so restored stores can never
		// panic in MustDecode), and tables are normalized.
		if d == nil || st == nil {
			t.Fatal("nil result without error")
		}
		st.ForEach(func(pidx int, s, o uint64) bool {
			d.MustDecode(s)
			d.MustDecode(o)
			return true
		})
	})
}

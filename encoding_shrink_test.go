package inferray_test

import (
	"testing"

	"inferray"
	"inferray/internal/datagen"
)

// TestHierarchyEncodingShrink is the closure-size regression gate for
// the hierarchy interval encoding (DESIGN.md §10): on every
// hierarchy-heavy dataset — LUBM under RDFS-Plus, the taxonomy
// stand-ins under RDFS-default — the encoding must stay active and keep
// at least 30% of the visible closure virtual. BSBM is
// instance-dominated (a few percent shrink by construction) and exempt.
func TestHierarchyEncodingShrink(t *testing.T) {
	const minShrink = 0.30
	datasets := []struct {
		name     string
		triples  []inferray.Triple
		fragment inferray.Fragment
	}{
		{"LUBM 5K", datagen.LUBM(5_000, 13), inferray.RDFSPlus},
		{"LUBM 20K", datagen.LUBM(20_000, 13), inferray.RDFSPlus},
		{"Wikipedia*", datagen.WikipediaLike(1).Generate(), inferray.RDFSDefault},
		{"Yago*", datagen.YagoLike(1).Generate(), inferray.RDFSDefault},
		{"Wordnet*", datagen.WordnetLike(1).Generate(), inferray.RDFSDefault},
	}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			r := inferray.New(inferray.WithFragment(ds.fragment))
			r.AddTriples(ds.triples)
			if _, err := r.Materialize(); err != nil {
				t.Fatal(err)
			}
			if !r.HierarchyEncoded() {
				t.Fatal("hierarchy encoding not active")
			}
			shrink := 1 - float64(r.StoredSize())/float64(r.Size())
			t.Logf("visible %d, stored %d, shrink %.3f", r.Size(), r.StoredSize(), shrink)
			if shrink < minShrink {
				t.Fatalf("closure shrink %.3f below the %.2f gate", shrink, minShrink)
			}
		})
	}
}

package baseline

import (
	"testing"

	"inferray/internal/datagen"
	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

func newVocab() *rules.Vocab {
	d := dictionary.NewWithVocabulary(rdf.VocabularyProperties, rdf.VocabularyResources)
	return rules.ResolveVocab(d)
}

func TestTripleSetIndexes(t *testing.T) {
	ts := NewTripleSet()
	if !ts.Add(Fact{1, 2, 3}) {
		t.Fatal("first add must report new")
	}
	if ts.Add(Fact{1, 2, 3}) {
		t.Fatal("duplicate add must report existing")
	}
	ts.Add(Fact{1, 2, 4})
	ts.Add(Fact{9, 2, 3})
	if !ts.Contains(Fact{1, 2, 3}) || ts.Contains(Fact{3, 2, 1}) {
		t.Fatal("membership wrong")
	}
	if len(ts.byP[2]) != 3 || len(ts.bySP[[2]uint64{1, 2}]) != 2 || len(ts.byPO[[2]uint64{2, 3}]) != 2 {
		t.Fatal("index contents wrong")
	}
	if ts.Size() != 3 {
		t.Fatal("size wrong")
	}
}

// TestHashJoinEngineChain checks semi-naive transitive closure through
// the SCM-SCO spec on a subclass chain.
func TestHashJoinEngineChain(t *testing.T) {
	v := newVocab()
	sco := dictionary.PropID(v.SubClassOf)
	e := NewHashJoinEngine(rules.Specs(rules.RhoDF, v))
	n := 30
	for i := 0; i < n; i++ {
		e.Add(Fact{uint64(1<<33) + uint64(i), sco, uint64(1<<33) + uint64(i) + 1})
	}
	derived, iters := e.Materialize()
	want := datagen.ChainClosureSize(n)
	if derived != want {
		t.Fatalf("derived %d, want %d", derived, want)
	}
	if iters < 2 {
		t.Fatalf("semi-naive closure of a chain needs several iterations, got %d", iters)
	}
}

func TestHashJoinDistinctSideCondition(t *testing.T) {
	// PRP-FP with a single object must derive nothing (y1 ≠ y2 guard).
	v := newVocab()
	e := NewHashJoinEngine(rules.Specs(rules.RDFSPlus, v))
	typ := dictionary.PropID(v.Type)
	p := uint64(1<<32) - 77
	e.Add(Fact{p, typ, v.FunctionalProp})
	e.Add(Fact{1 << 33, p, (1 << 33) + 1})
	before := e.Store.Size()
	e.Materialize()
	same := dictionary.PropID(v.SameAs)
	for _, f := range e.Store.All() {
		if f[1] == same {
			t.Fatalf("spurious sameAs %v", f)
		}
	}
	_ = before
}

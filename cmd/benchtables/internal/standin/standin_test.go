package standin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"inferray/internal/baseline"
	"inferray/internal/datagen"
	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

func newVocab() *rules.Vocab {
	d := dictionary.NewWithVocabulary(rdf.VocabularyProperties, rdf.VocabularyResources)
	return rules.ResolveVocab(d)
}

// TestGraphEngineMatchesHashJoin: the two baseline architectures must
// produce identical closures (they differ in mechanics only).
func TestGraphEngineMatchesHashJoin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := newVocab()
		specs := rules.Specs(rules.RDFSPlus, v)
		hj := baseline.NewHashJoinEngine(specs)
		ge := NewGraphEngine(specs)

		sco := dictionary.PropID(v.SubClassOf)
		typ := dictionary.PropID(v.Type)
		same := dictionary.PropID(v.SameAs)
		props := []uint64{sco, typ, same, dictionary.PropID(v.Domain), uint64(1<<32) - 50}
		for i := 0; i < 25; i++ {
			f := Fact{
				(1 << 33) + uint64(rng.Intn(8)),
				props[rng.Intn(len(props))],
				(1 << 33) + uint64(rng.Intn(8)),
			}
			hj.Add(f)
			ge.Add(f)
		}
		hj.Materialize()
		ge.Materialize()
		if hj.Store.Size() != ge.Size() {
			return false
		}
		for _, f := range ge.All() {
			if !hj.Store.Contains(f) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGraphEngineLinkedLists(t *testing.T) {
	v := newVocab()
	g := NewGraphEngine(rules.Specs(rules.RhoDF, v))
	p := dictionary.PropID(v.SubClassOf)
	g.Add(Fact{10, p, 11})
	g.Add(Fact{10, p, 12})
	g.Add(Fact{13, p, 10})
	if g.Size() != 3 {
		t.Fatal("size wrong")
	}
	// Out-chain of 10 has two statements; in-chain of 10 has one.
	outN := 0
	for st := g.nodes[10].out; st != nil; st = st.nextOut {
		outN++
	}
	inN := 0
	for st := g.nodes[10].in; st != nil; st = st.nextIn {
		inN++
	}
	if outN != 2 || inN != 1 {
		t.Fatalf("chains: out=%d in=%d, want 2/1", outN, inN)
	}
	if len(g.All()) != 3 {
		t.Fatal("All() must walk the global list")
	}
}

// TestWebPIEMatchesHashJoin: the MapReduce engine must compute the same
// RDFS closure as the semi-naive hash-join engine.
func TestWebPIEMatchesHashJoin(t *testing.T) {
	f := func(seed int64, full bool) bool {
		rng := rand.New(rand.NewSource(seed))
		v := newVocab()
		fragment := rules.RDFSDefault
		if full {
			fragment = rules.RDFSFull
		}
		hj := baseline.NewHashJoinEngine(rules.Specs(fragment, v))
		wp := NewWebPIEEngine(v, full, JobConfig{Workers: 3, Partitions: 3})

		sco := dictionary.PropID(v.SubClassOf)
		spo := dictionary.PropID(v.SubPropertyOf)
		dom := dictionary.PropID(v.Domain)
		rngP := dictionary.PropID(v.Range)
		typ := dictionary.PropID(v.Type)
		userProp := func(i int) uint64 { return uint64(1<<32) - 60 - uint64(i) }
		res := func(i int) uint64 { return (1 << 33) + uint64(i) }
		for i := 0; i < 30; i++ {
			var f Fact
			switch rng.Intn(7) {
			case 0:
				f = Fact{res(rng.Intn(6)), sco, res(rng.Intn(6))}
			case 1:
				f = Fact{userProp(rng.Intn(3)), spo, userProp(rng.Intn(3))}
			case 2:
				f = Fact{userProp(rng.Intn(3)), dom, res(rng.Intn(6))}
			case 3:
				f = Fact{userProp(rng.Intn(3)), rngP, res(rng.Intn(6))}
			case 4:
				f = Fact{res(rng.Intn(6)), typ, res(rng.Intn(6))}
			default:
				f = Fact{res(rng.Intn(6)), userProp(rng.Intn(3)), res(rng.Intn(6))}
			}
			hj.Add(f)
			wp.Add(f)
		}
		hj.Materialize()
		wp.Materialize()
		if hj.Store.Size() != wp.Size() {
			return false
		}
		for _, f := range wp.All() {
			if !hj.Store.Contains(f) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestWebPIEDuplicateShuffleCost: the dedup barrier reshuffles the whole
// store every iteration — the overhead the paper quotes. Verify the
// accounting exposes it.
func TestWebPIEDuplicateShuffleCost(t *testing.T) {
	v := newVocab()
	wp := NewWebPIEEngine(v, false, JobConfig{Workers: 2, Partitions: 2})
	sco := dictionary.PropID(v.SubClassOf)
	typ := dictionary.PropID(v.Type)
	for i := 0; i < 20; i++ {
		wp.Add(Fact{(1 << 33) + uint64(i), sco, (1 << 33) + uint64(i) + 1})
	}
	wp.Add(Fact{1 << 34, typ, 1 << 33})
	derived, iters := wp.Materialize()
	if derived == 0 || iters < 2 {
		t.Fatalf("derived=%d iters=%d", derived, iters)
	}
	if wp.Jobs != 2*iters {
		t.Fatalf("jobs=%d, want 2 per iteration", wp.Jobs)
	}
	if wp.ShuffledRecords <= wp.Size() {
		t.Fatalf("shuffle accounting too small: %d records for %d facts",
			wp.ShuffledRecords, wp.Size())
	}
}

// TestWebPIEChainClosure: the full chain closure via driver-side schema
// closure.
func TestWebPIEChainClosure(t *testing.T) {
	v := newVocab()
	wp := NewWebPIEEngine(v, false, JobConfig{})
	sco := dictionary.PropID(v.SubClassOf)
	n := 40
	for i := 0; i < n; i++ {
		wp.Add(Fact{(1 << 33) + uint64(i), sco, (1 << 33) + uint64(i) + 1})
	}
	derived, _ := wp.Materialize()
	if derived != datagen.ChainClosureSize(n) {
		t.Fatalf("derived %d, want %d", derived, datagen.ChainClosureSize(n))
	}
}

// Package baseline is the independent evaluator the tests judge the
// engine against: HashJoinEngine runs semi-naive datalog over a
// hash-indexed TripleSet, driven by the declarative rules.Specs. It
// shares no sort, merge, hierarchy encoding, DRed or WAL code with
// internal/reasoner, so a bug in those cannot hide in both sides of a
// comparison. TestWritePathConformance and internal/reasoner's tests
// compare closures against it (DESIGN.md §3); cmd/benchtables also
// prints it as the RDFox-like column of the paper's tables. The other
// competitor stand-ins live with that program, under
// cmd/benchtables/internal.
package baseline

// Fact is one encoded triple ⟨s, p, o⟩.
type Fact [3]uint64

// TripleSet is a hash-indexed triple store: a membership set plus the
// access paths a generic join engine needs. Lookups are O(1) map probes
// — fast, but each probe is a random memory access, which is exactly the
// behaviour the paper attributes to hash-join reasoners.
type TripleSet struct {
	set  map[Fact]struct{}
	all  []Fact
	byP  map[uint64][]Fact
	byS  map[uint64][]Fact
	byO  map[uint64][]Fact
	bySP map[[2]uint64][]uint64 // (s,p) -> objects
	byPO map[[2]uint64][]uint64 // (p,o) -> subjects
}

// NewTripleSet returns an empty indexed store.
func NewTripleSet() *TripleSet {
	return &TripleSet{
		set:  make(map[Fact]struct{}),
		byP:  make(map[uint64][]Fact),
		byS:  make(map[uint64][]Fact),
		byO:  make(map[uint64][]Fact),
		bySP: make(map[[2]uint64][]uint64),
		byPO: make(map[[2]uint64][]uint64),
	}
}

// Add inserts a fact, updating all indexes; it reports whether the fact
// was new.
func (ts *TripleSet) Add(f Fact) bool {
	if _, ok := ts.set[f]; ok {
		return false
	}
	ts.set[f] = struct{}{}
	ts.all = append(ts.all, f)
	ts.byP[f[1]] = append(ts.byP[f[1]], f)
	ts.byS[f[0]] = append(ts.byS[f[0]], f)
	ts.byO[f[2]] = append(ts.byO[f[2]], f)
	ts.bySP[[2]uint64{f[0], f[1]}] = append(ts.bySP[[2]uint64{f[0], f[1]}], f[2])
	ts.byPO[[2]uint64{f[1], f[2]}] = append(ts.byPO[[2]uint64{f[1], f[2]}], f[0])
	return true
}

// Contains reports membership.
func (ts *TripleSet) Contains(f Fact) bool {
	_, ok := ts.set[f]
	return ok
}

// Size returns the number of stored facts.
func (ts *TripleSet) Size() int { return len(ts.all) }

// All returns the facts in insertion order (callers must not mutate).
func (ts *TripleSet) All() []Fact { return ts.all }

// Binding is a partial assignment of a rule's variable slots, shared
// with the stand-in engines of cmd/benchtables.
type Binding struct {
	vals [8]uint64
	set  [8]bool
}

// Get returns the slot's value and whether it is bound.
func (b *Binding) Get(slot int) (uint64, bool) { return b.vals[slot], b.set[slot] }

// Bind sets the slot.
func (b *Binding) Bind(slot int, v uint64) { b.vals[slot] = v; b.set[slot] = true }

// Unbind clears the slot.
func (b *Binding) Unbind(slot int) { b.set[slot] = false }

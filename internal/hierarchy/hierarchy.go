// Package hierarchy implements the LiteMat-style interval encoding of
// the rdfs:subClassOf / rdfs:subPropertyOf hierarchies: instead of
// materializing the transitive subsumption closure as triples, every
// hierarchy node receives a dense preorder rank, and the strict
// ancestor/descendant sets of each strong component are kept as compact
// interval sets over that rank space. Subsumption entailment then is an
// interval-containment check — `A rdfs:subClassOf B` holds iff
// rank(A) lies in B's descendant intervals — and the subsumption-derived
// part of the closure (transitive subClassOf/subPropertyOf triples and
// the rdf:type triples they entail) becomes *virtual*: computed on
// demand by View, never stored, sorted, merged, or checkpointed.
//
// The encoding deliberately does not renumber the dictionary (LiteMat
// encodes subsumption into the term ids themselves): Inferray's
// dictionary is append-only and its dense split numbering is load-bearing
// for property-table addressing and snapshot stability, so the interval
// ids live in a side table keyed by term id instead. DESIGN.md §10
// documents the layout and the exact virtual-triple semantics.
package hierarchy

import (
	"slices"
	"sync"

	"inferray/internal/closure"
	"inferray/internal/store"
)

// Relation encodes one subsumption hierarchy (the class hierarchy from
// the raw subClassOf edges, or the property hierarchy from the raw
// subPropertyOf edges). The visible relation it answers for is the
// transitive closure with path length ≥ 1 of the edges it was built
// from: exactly what closure.Close materializes in the encoding-off
// engine, including the reflexive pairs cycles produce.
//
// The embedded condensation — nodes and their lookup, components, rank
// blocks and strict ancestor (up) sets — is the θ stage's own build; the
// relation adds only what Close does not need: the strict descendant
// sets and the counts.
type Relation struct {
	*closure.Condensation
	// Strict descendant rank sets per component (members of the
	// component itself excluded; a cyclic one adds its own block at
	// query time).
	down []closure.IntervalSet

	visiblePairs int // total visible (sub, super) pairs
	subjects     int // nodes with a nonempty visible super set
	objects      int // nodes with a nonempty visible sub set
	intervals    int // total stored intervals across up+down (compactness)
}

// newRelation builds a relation from a flat ⟨sub, super⟩ edge list (the
// raw, unclosed property-table pairs). The build is deterministic in the
// edge list, so rebuilding from a restored snapshot reproduces the same
// encoding.
func newRelation(pairs []uint64) *Relation {
	r := &Relation{Condensation: closure.Condense(pairs)}
	nscc := len(r.Size)
	// Strict descendant sets in descending component order: subs have
	// higher numbers, so their sets are final first.
	r.down = make([]closure.IntervalSet, nscc)
	for c := int32(nscc) - 1; c >= 0; c-- {
		for _, s := range r.DirectSubs(c) {
			r.Absorb(&r.down[c], r.down, s)
		}
	}
	for c := 0; c < nscc; c++ {
		size := int(r.Size[c])
		supers := r.Up[c].Cardinality()
		subs := r.down[c].Cardinality()
		if r.Cyclic[c] {
			supers += size
			subs += size
		}
		r.visiblePairs += size * supers
		if supers > 0 {
			r.subjects += size
		}
		if subs > 0 {
			r.objects += size
		}
		r.intervals += r.Up[c].Intervals() + r.down[c].Intervals()
	}
	return r
}

// Has reports whether the term participates in the hierarchy.
func (r *Relation) Has(id uint64) bool {
	_, ok := r.Lookup(id)
	return ok
}

// Nodes returns the number of hierarchy terms.
func (r *Relation) Nodes() int { return len(r.IDs) }

// VisiblePairs returns the total number of visible ⟨sub, super⟩ pairs —
// the size the materialized closure of the edges would have.
func (r *Relation) VisiblePairs() int { return r.visiblePairs }

// Intervals returns the total number of stored intervals across all
// ancestor/descendant sets (the interval-table size statistic).
func (r *Relation) Intervals() int { return r.intervals }

// Subjects returns the number of nodes with a nonempty visible super set.
func (r *Relation) Subjects() int { return r.subjects }

// Objects returns the number of nodes with a nonempty visible sub set.
func (r *Relation) Objects() int { return r.objects }

// Subsumes reports whether ⟨a, super⟩ is a visible pair: a path of
// length ≥ 1 from a to super exists — the interval-containment check at
// the heart of the encoding.
func (r *Relation) Subsumes(a, super uint64) bool {
	la, ok := r.Lookup(a)
	if !ok {
		return false
	}
	lb, ok := r.Lookup(super)
	if !ok {
		return false
	}
	ca, cb := r.SCC[la], r.SCC[lb]
	if ca == cb {
		return r.Cyclic[ca]
	}
	return r.Up[ca].Contains(r.Rank[lb])
}

// HasSubs reports whether super has at least one visible sub.
func (r *Relation) HasSubs(super uint64) bool {
	lb, ok := r.Lookup(super)
	if !ok {
		return false
	}
	c := r.SCC[lb]
	return r.Cyclic[c] || !r.down[c].Empty()
}

// reachLocals appends the sorted local indexes of the visible reach of
// SCC c through the given strict rank set (up or down), including the
// SCC's own block when it is cyclic.
func (r *Relation) reachLocals(c int32, set *closure.IntervalSet, buf []int32) []int32 {
	set.ForEach(func(rank int32) {
		buf = append(buf, r.At[rank])
	})
	if r.Cyclic[c] {
		first := r.First[c]
		for i := int32(0); i < r.Size[c]; i++ {
			buf = append(buf, r.At[first+i])
		}
	}
	slices.Sort(buf)
	return buf
}

// Supers streams the visible supers of a in ascending term-id order.
// fn returning false stops the walk; the return value reports whether
// the walk ran to completion.
func (r *Relation) Supers(a uint64, fn func(super uint64) bool) bool {
	la, ok := r.Lookup(a)
	if !ok {
		return true
	}
	c := r.SCC[la]
	for _, li := range r.reachLocals(c, &r.Up[c], nil) {
		if !fn(r.IDs[li]) {
			return false
		}
	}
	return true
}

// Subs streams the visible subs of super in ascending term-id order.
func (r *Relation) Subs(super uint64, fn func(sub uint64) bool) bool {
	lb, ok := r.Lookup(super)
	if !ok {
		return true
	}
	c := r.SCC[lb]
	for _, li := range r.reachLocals(c, &r.down[c], nil) {
		if !fn(r.IDs[li]) {
			return false
		}
	}
	return true
}

// AppendSupers appends the visible supers of a to buf (unsorted SCC
// block order; callers sort after accumulating several sets).
func (r *Relation) AppendSupers(a uint64, buf []uint64) []uint64 {
	la, ok := r.Lookup(a)
	if !ok {
		return buf
	}
	c := r.SCC[la]
	r.Up[c].ForEach(func(rank int32) {
		buf = append(buf, r.IDs[r.At[rank]])
	})
	if r.Cyclic[c] {
		first := r.First[c]
		for i := int32(0); i < r.Size[c]; i++ {
			buf = append(buf, r.IDs[r.At[first+i]])
		}
	}
	return buf
}

// ForEachPair streams every visible ⟨sub, super⟩ pair: sorted by
// ⟨sub, super⟩ when osOrder is false, by ⟨super, sub⟩ when true. fn is
// always called as fn(sub, super).
func (r *Relation) ForEachPair(osOrder bool, fn func(sub, super uint64) bool) bool {
	for li := int32(0); li < int32(len(r.IDs)); li++ {
		c := r.SCC[li]
		set := &r.Up[c]
		if osOrder {
			set = &r.down[c]
		}
		for _, lj := range r.reachLocals(c, set, nil) {
			var ok bool
			if osOrder {
				ok = fn(r.IDs[lj], r.IDs[li])
			} else {
				ok = fn(r.IDs[li], r.IDs[lj])
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// ForEachCyclicSCC calls fn with the sorted member ids of every cyclic
// strong component — the equivalence classes the encoded SCM-EQC2 /
// SCM-EQP2 rules emit from. A component's rank block lists its members
// in ascending id order, so the walk needs no sort.
func (r *Relation) ForEachCyclicSCC(fn func(members []uint64)) {
	for c := 0; c < len(r.Cyclic); c++ {
		if !r.Cyclic[c] || r.Size[c] == 0 {
			continue
		}
		ids := make([]uint64, 0, r.Size[c])
		first := r.First[c]
		for i := int32(0); i < r.Size[c]; i++ {
			ids = append(ids, r.IDs[r.At[first+i]])
		}
		fn(ids)
	}
}

// Index pairs the class and property relations of one materialized
// store with the property indexes of the three predicates whose tables
// carry virtual content. It is immutable once built (the reasoner
// replaces the whole index when a subClassOf/subPropertyOf table
// changes); the embedded caches are concurrency-safe.
type Index struct {
	// Classes is the subClassOf hierarchy, Props the subPropertyOf one.
	Classes *Relation
	Props   *Relation

	typePidx, scPidx, spPidx int

	mu       sync.Mutex
	typeMemo typeMemo
	carryRun stamps // CarryTypeStats' per-run working memory

	// subjMemo caches the merged visible subject list per class for
	// virtual type scans (View.typeSubjects), valid for one type-table
	// version; a version bump drops the whole map.
	subjVersion uint64
	subjMemo    map[uint64][]uint64
}

// typeSubjectsCached returns the memoized visible-subject list of a
// class, if cached for this type-table version. The returned slice is
// shared — callers must not mutate it.
func (x *Index) typeSubjectsCached(class, version uint64) ([]uint64, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.subjMemo == nil || x.subjVersion != version {
		return nil, false
	}
	s, ok := x.subjMemo[class]
	return s, ok
}

// memoTypeSubjects stores a class's visible-subject list for the given
// type-table version, resetting the cache when the version moved.
func (x *Index) memoTypeSubjects(class, version uint64, subjects []uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.subjMemo == nil || x.subjVersion != version {
		x.subjMemo = make(map[uint64][]uint64)
		x.subjVersion = version
	}
	x.subjMemo[class] = subjects
}

// typeMemo is the visible rdf:type count of one type-table version: what
// Size() and the planner read. A whole-table pass (typeStats) fills it;
// after that the reasoner carries it from version to version by
// recounting only the subject runs a round touched (CarryTypeStats), so
// a write costs the runs it changed, not the table.
type typeMemo struct {
	ok      bool
	version uint64
	visible int // visible type pairs: stored plus virtual
	passes  int // whole-table passes so far (the tests' memo-hit check)

	// The distinct visible classes, with the table-wide stamps (classes
	// inside the hierarchy) and set (classes outside it) that counted
	// them, kept so that arriving pairs can only add to the count. A
	// removal cannot be carried — the class may or may not have another
	// holder — so it clears objectsOK and the next reader that needs the
	// number runs the pass.
	objectsOK bool
	objects   int
	all       stamps
	outside   map[uint64]struct{}
}

// Build constructs the index from the raw (unclosed, normalized)
// subClassOf and subPropertyOf pair lists. typePidx, scPidx and spPidx
// are the dense property indexes of rdf:type, rdfs:subClassOf and
// rdfs:subPropertyOf.
func Build(scPairs, spPairs []uint64, typePidx, scPidx, spPidx int) *Index {
	return &Index{
		Classes:  newRelation(scPairs),
		Props:    newRelation(spPairs),
		typePidx: typePidx,
		scPidx:   scPidx,
		spPidx:   spPidx,
	}
}

// Intervals returns the total interval-table size across both relations.
func (x *Index) Intervals() int {
	return x.Classes.Intervals() + x.Props.Intervals()
}

// typeStats returns (virtual type pairs, distinct visible classes) for
// the given rdf:type table. It is a memo hit when the memo stands at the
// table's version — the reasoner carries it there after every round —
// and a whole-table pass otherwise: a cold memo (a new index after
// buildHier, an installed image) or, for a caller that needs objects,
// the first such read after a removal.
func (x *Index) typeStats(t *store.Table, needObjects bool) (virtual, objects int) {
	if t == nil || t.Empty() {
		return 0, 0
	}
	x.mu.Lock()
	if m := &x.typeMemo; m.ok && m.version == t.Version() && (m.objectsOK || !needObjects) {
		v, o := m.visible-t.Size(), m.objects
		x.mu.Unlock()
		return v, o
	}
	x.mu.Unlock()

	// One pass, one probe per stored pair: each class is resolved once
	// and stamped twice — into the run's epoch for the subject's visible
	// class count, into the table-wide epoch for the distinct visible
	// classes. Classes outside the hierarchy are visible as themselves.
	rel := x.Classes
	pairs := t.Pairs()
	var run, all stamps
	all.reset(len(rel.IDs))
	outside := make(map[uint64]struct{})
	visible := 0
	for i := 0; i < len(pairs); i += 2 {
		if i == 0 || pairs[i] != pairs[i-2] {
			run.reset(len(rel.IDs))
		}
		rank, scc, ok := rel.resolve(pairs[i+1])
		if !ok {
			visible++
			outside[pairs[i+1]] = struct{}{}
			continue
		}
		visible += rel.stampVisible(rank, scc, &run)
		objects += rel.stampVisible(rank, scc, &all)
	}
	objects += len(outside)

	x.mu.Lock()
	x.typeMemo = typeMemo{
		ok: true, version: t.Version(), visible: visible, passes: x.typeMemo.passes + 1,
		objectsOK: true, objects: objects, all: all, outside: outside,
	}
	x.mu.Unlock()
	return visible - t.Size(), objects
}

// CarryTypeStats moves the memo from version from of the rdf:type table
// to the version t stands at now. changed lists, ⟨s,o⟩-sorted, the pairs
// that arrived (added) or left since from, t holding the arrivals and
// lacking the departures; pairs compacted away are not reported — a
// shadowed pair is visible either way — so a compaction is carried with
// a nil list. Only the subject runs changed names are recounted, each
// found by galloping from the one before. A memo that does not stand at
// from (cold, or a version was skipped) is left alone: the next read
// runs the whole-table pass.
func (x *Index) CarryTypeStats(t *store.Table, from uint64, changed []uint64, added bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	m := &x.typeMemo
	if !m.ok || m.version != from {
		return
	}
	m.version = t.Version()
	if len(changed) == 0 {
		return
	}
	rel, pairs, run := x.Classes, t.Pairs(), &x.carryRun
	count := func(lists ...[]uint64) (n int) {
		run.reset(len(rel.IDs))
		for _, l := range lists {
			for i := 1; i < len(l); i += 2 {
				if rank, scc, ok := rel.resolve(l[i]); ok {
					n += rel.stampVisible(rank, scc, run)
				} else {
					n++ // outside the hierarchy: visible as itself, once
				}
			}
		}
		return n
	}
	hi := 0
	for i, j := 0, 0; i < len(changed); i = j {
		for j = i + 2; j < len(changed) && changed[j] == changed[i]; j += 2 {
		}
		var lo int
		lo, hi = t.SubjectRunFrom(changed[i], hi)
		now, sub := pairs[2*lo:2*hi], changed[i:j]
		if added {
			m.visible += count(now) - count(without(now, sub))
		} else {
			m.visible += count(now) - count(now, sub)
		}
	}
	if !added {
		m.objectsOK, m.all, m.outside = false, stamps{}, nil
	} else if m.objectsOK {
		for i := 1; i < len(changed); i += 2 {
			if rank, scc, ok := rel.resolve(changed[i]); ok {
				m.objects += rel.stampVisible(rank, scc, &m.all)
			} else if _, seen := m.outside[changed[i]]; !seen {
				m.outside[changed[i]] = struct{}{}
				m.objects++
			}
		}
	}
}

// without returns the pairs of run — one subject's ⟨s,o⟩-sorted run —
// that sub, a sorted subset of it, does not hold.
func without(run, sub []uint64) []uint64 {
	out := make([]uint64, 0, len(run)-len(sub))
	j := 0
	for i := 0; i < len(run); i += 2 {
		if j < len(sub) && sub[j+1] == run[i+1] {
			j += 2
			continue
		}
		out = append(out, run[i], run[i+1])
	}
	return out
}

// TypeStatsPasses returns how many whole-table passes typeStats has run
// on this index; ForgetTypeStats makes the next read run one. Both exist
// for the tests that check the carried count against a cold recount.
func (x *Index) TypeStatsPasses() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.typeMemo.passes
}

// ForgetTypeStats drops the memo (keeping the pass count).
func (x *Index) ForgetTypeStats() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.typeMemo = typeMemo{passes: x.typeMemo.passes}
}

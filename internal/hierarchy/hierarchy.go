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
	"math/bits"
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
type Relation struct {
	nodes []uint64 // sorted distinct node ids (terms with edges)
	// slots is the id → local index table: open addressing over a
	// power-of-two array at most half full, so resolving a class is one
	// multiplicative-hash probe and a short linear scan.
	slots []slot
	shift uint // 64 − log2(len(slots))

	sccOf  []int32 // local node index -> SCC id
	rankOf []int32 // local node index -> dense preorder rank
	nodeAt []int32 // rank -> local node index

	cyclic   []bool  // per SCC: mutual or self edges (reflexive pairs visible)
	sccFirst []int32 // per SCC: first rank of its contiguous member block
	sccSize  []int32 // per SCC: member count
	// Strict ancestor / descendant rank sets per SCC (members of the SCC
	// itself excluded; a cyclic SCC adds its own block at query time).
	up, down []*closure.IntervalSet

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
	r := &Relation{}
	if len(pairs) == 0 {
		return r
	}
	nodes := collectNodes(pairs)
	n := len(nodes)
	r.nodes = nodes
	r.buildSlots()
	idx := func(id uint64) int32 {
		i, _ := r.lookup(id) // every edge endpoint is a node
		return i
	}

	// CSR adjacency for the sub → super edges.
	nEdges := len(pairs) / 2
	src := make([]int32, nEdges)
	dst := make([]int32, nEdges)
	adjStart := make([]int32, n+1)
	for e := 0; e < nEdges; e++ {
		src[e] = idx(pairs[2*e])
		dst[e] = idx(pairs[2*e+1])
		adjStart[src[e]+1]++
	}
	for i := 0; i < n; i++ {
		adjStart[i+1] += adjStart[i]
	}
	adj := make([]int32, nEdges)
	fill := make([]int32, n)
	copy(fill, adjStart[:n])
	for e := 0; e < nEdges; e++ {
		adj[fill[src[e]]] = dst[e]
		fill[src[e]]++
	}

	scc, nscc, cyclic := closure.StronglyConnected(n, adjStart, adj)
	r.sccOf = scc
	r.cyclic = cyclic

	// Deduplicated quotient edges, in both orientations. SCC ids are in
	// reverse topological order of sub → super, so supers have lower ids.
	type qedge struct{ from, to int32 }
	qset := make(map[qedge]struct{}, nEdges)
	for e := 0; e < nEdges; e++ {
		cf, ct := scc[src[e]], scc[dst[e]]
		if cf != ct {
			qset[qedge{cf, ct}] = struct{}{}
		}
	}
	upAdj := make([][]int32, nscc)   // SCC -> its direct super SCCs
	downAdj := make([][]int32, nscc) // SCC -> its direct sub SCCs
	for q := range qset {
		upAdj[q.from] = append(upAdj[q.from], q.to)
		downAdj[q.to] = append(downAdj[q.to], q.from)
	}
	for c := range upAdj {
		slices.Sort(upAdj[c])
		slices.Sort(downAdj[c])
	}

	// SCC member lists in ascending local (= term id) order.
	members := make([][]int32, nscc)
	for v := int32(0); v < int32(n); v++ {
		members[scc[v]] = append(members[scc[v]], v)
	}

	// Preorder ranks: walk the condensation from the hierarchy tops down
	// the super → sub edges, giving every SCC one contiguous member
	// block and — for the common tree-shaped hierarchy — every subtree a
	// contiguous rank range, which is what keeps the descendant interval
	// sets near-minimal (the LiteMat property). Ascending SCC id order
	// visits supers first, so every component is reached.
	r.rankOf = make([]int32, n)
	r.nodeAt = make([]int32, n)
	r.sccFirst = make([]int32, nscc)
	r.sccSize = make([]int32, nscc)
	visited := make([]bool, nscc)
	var next int32
	var stack []int32
	for rootC := int32(0); rootC < int32(nscc); rootC++ {
		if visited[rootC] {
			continue
		}
		stack = append(stack[:0], rootC)
		visited[rootC] = true
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r.sccFirst[c] = next
			r.sccSize[c] = int32(len(members[c]))
			for _, v := range members[c] {
				r.rankOf[v] = next
				r.nodeAt[next] = v
				next++
			}
			// Push children in reverse so the lowest-id sub is visited
			// first (pure determinism; any fixed order is correct).
			kids := downAdj[c]
			for i := len(kids) - 1; i >= 0; i-- {
				if !visited[kids[i]] {
					visited[kids[i]] = true
					stack = append(stack, kids[i])
				}
			}
		}
	}

	// Strict ancestor sets, in ascending SCC id order: every direct
	// super SCC (lower id) is final when its subs are processed. The
	// containment check is Nuutila's pruning — member blocks enter
	// atomically, so one rank probes the whole block.
	r.up = make([]*closure.IntervalSet, nscc)
	r.down = make([]*closure.IntervalSet, nscc)
	for c := 0; c < nscc; c++ {
		r.up[c] = &closure.IntervalSet{}
		r.down[c] = &closure.IntervalSet{}
	}
	for c := int32(0); c < int32(nscc); c++ {
		for _, t := range upAdj[c] {
			if r.up[c].Contains(r.sccFirst[t]) {
				continue
			}
			r.up[c].AddRange(r.sccFirst[t], r.sccFirst[t]+r.sccSize[t]-1)
			r.up[c].UnionWith(r.up[t])
		}
	}
	// Strict descendant sets, in descending SCC id order (subs first).
	for c := int32(nscc) - 1; c >= 0; c-- {
		for _, s := range downAdj[c] {
			if r.down[c].Contains(r.sccFirst[s]) {
				continue
			}
			r.down[c].AddRange(r.sccFirst[s], r.sccFirst[s]+r.sccSize[s]-1)
			r.down[c].UnionWith(r.down[s])
		}
	}

	for c := 0; c < nscc; c++ {
		size := int(r.sccSize[c])
		supers := r.up[c].Cardinality()
		subs := r.down[c].Cardinality()
		if r.cyclic[c] {
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
		r.intervals += r.up[c].Intervals() + r.down[c].Intervals()
	}
	return r
}

// collectNodes returns the sorted distinct ids of the pair list.
func collectNodes(pairs []uint64) []uint64 {
	nodes := slices.Clone(pairs)
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// slot is one entry of the lookup table; ref is the local index plus
// one, zero marking an empty slot.
type slot struct {
	id  uint64
	ref int32
}

// buildSlots fills the lookup table from the node list.
func (r *Relation) buildSlots() {
	size := 4
	for size < 2*len(r.nodes) {
		size <<= 1
	}
	r.slots = make([]slot, size)
	r.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for l, id := range r.nodes {
		i := r.home(id)
		for r.slots[i].ref != 0 {
			i = (i + 1) & (size - 1)
		}
		r.slots[i] = slot{id, int32(l) + 1}
	}
}

// home returns the slot a term id hashes to (Fibonacci hashing: ids are
// dense, the multiply spreads them).
func (r *Relation) home(id uint64) int {
	return int((id * 0x9E3779B97F4A7C15) >> r.shift)
}

// lookup returns the local index of a term id. It sits under every
// per-class step of the engine.
func (r *Relation) lookup(id uint64) (int32, bool) {
	if len(r.slots) == 0 {
		return 0, false
	}
	for i := r.home(id); ; i = (i + 1) & (len(r.slots) - 1) {
		switch sl := r.slots[i]; {
		case sl.ref == 0:
			return 0, false
		case sl.id == id:
			return sl.ref - 1, true
		}
	}
}

// Has reports whether the term participates in the hierarchy.
func (r *Relation) Has(id uint64) bool {
	_, ok := r.lookup(id)
	return ok
}

// Nodes returns the number of hierarchy terms.
func (r *Relation) Nodes() int { return len(r.nodes) }

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
	la, ok := r.lookup(a)
	if !ok {
		return false
	}
	lb, ok := r.lookup(super)
	if !ok {
		return false
	}
	ca, cb := r.sccOf[la], r.sccOf[lb]
	if ca == cb {
		return r.cyclic[ca]
	}
	return r.up[ca].Contains(r.rankOf[lb])
}

// HasSupers reports whether a has at least one visible super.
func (r *Relation) HasSupers(a uint64) bool {
	la, ok := r.lookup(a)
	if !ok {
		return false
	}
	c := r.sccOf[la]
	return r.cyclic[c] || !r.up[c].Empty()
}

// HasSubs reports whether super has at least one visible sub.
func (r *Relation) HasSubs(super uint64) bool {
	lb, ok := r.lookup(super)
	if !ok {
		return false
	}
	c := r.sccOf[lb]
	return r.cyclic[c] || !r.down[c].Empty()
}

// reachLocals appends the sorted local indexes of the visible reach of
// SCC c through the given strict rank set (up or down), including the
// SCC's own block when it is cyclic.
func (r *Relation) reachLocals(c int32, set *closure.IntervalSet, buf []int32) []int32 {
	set.ForEach(func(rank int32) {
		buf = append(buf, r.nodeAt[rank])
	})
	if r.cyclic[c] {
		first := r.sccFirst[c]
		for i := int32(0); i < r.sccSize[c]; i++ {
			buf = append(buf, r.nodeAt[first+i])
		}
	}
	slices.Sort(buf)
	return buf
}

// Supers streams the visible supers of a in ascending term-id order.
// fn returning false stops the walk; the return value reports whether
// the walk ran to completion.
func (r *Relation) Supers(a uint64, fn func(super uint64) bool) bool {
	la, ok := r.lookup(a)
	if !ok {
		return true
	}
	c := r.sccOf[la]
	for _, li := range r.reachLocals(c, r.up[c], nil) {
		if !fn(r.nodes[li]) {
			return false
		}
	}
	return true
}

// Subs streams the visible subs of super in ascending term-id order.
func (r *Relation) Subs(super uint64, fn func(sub uint64) bool) bool {
	lb, ok := r.lookup(super)
	if !ok {
		return true
	}
	c := r.sccOf[lb]
	for _, li := range r.reachLocals(c, r.down[c], nil) {
		if !fn(r.nodes[li]) {
			return false
		}
	}
	return true
}

// AppendSupers appends the visible supers of a to buf (unsorted SCC
// block order; callers sort after accumulating several sets).
func (r *Relation) AppendSupers(a uint64, buf []uint64) []uint64 {
	la, ok := r.lookup(a)
	if !ok {
		return buf
	}
	c := r.sccOf[la]
	r.up[c].ForEach(func(rank int32) {
		buf = append(buf, r.nodes[r.nodeAt[rank]])
	})
	if r.cyclic[c] {
		first := r.sccFirst[c]
		for i := int32(0); i < r.sccSize[c]; i++ {
			buf = append(buf, r.nodes[r.nodeAt[first+i]])
		}
	}
	return buf
}

// SupersCount returns the number of visible supers of a.
func (r *Relation) SupersCount(a uint64) int {
	la, ok := r.lookup(a)
	if !ok {
		return 0
	}
	c := r.sccOf[la]
	n := r.up[c].Cardinality()
	if r.cyclic[c] {
		n += int(r.sccSize[c])
	}
	return n
}

// ForEachPair streams every visible ⟨sub, super⟩ pair: sorted by
// ⟨sub, super⟩ when osOrder is false, by ⟨super, sub⟩ when true. fn is
// always called as fn(sub, super).
func (r *Relation) ForEachPair(osOrder bool, fn func(sub, super uint64) bool) bool {
	for li := int32(0); li < int32(len(r.nodes)); li++ {
		c := r.sccOf[li]
		set := r.up[c]
		if osOrder {
			set = r.down[c]
		}
		for _, lj := range r.reachLocals(c, set, nil) {
			var ok bool
			if osOrder {
				ok = fn(r.nodes[lj], r.nodes[li])
			} else {
				ok = fn(r.nodes[li], r.nodes[lj])
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
	for c := 0; c < len(r.cyclic); c++ {
		if !r.cyclic[c] || r.sccSize[c] == 0 {
			continue
		}
		ids := make([]uint64, 0, r.sccSize[c])
		first := r.sccFirst[c]
		for i := int32(0); i < r.sccSize[c]; i++ {
			ids = append(ids, r.nodes[r.nodeAt[first+i]])
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
	all.reset(len(rel.nodes))
	outside := make(map[uint64]struct{})
	visible := 0
	for i := 0; i < len(pairs); i += 2 {
		if i == 0 || pairs[i] != pairs[i-2] {
			run.reset(len(rel.nodes))
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
		run.reset(len(rel.nodes))
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

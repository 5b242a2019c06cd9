package closure

import (
	"math/bits"
	"slices"
)

// Close computes the transitive closure of the directed graph given as a
// flat ⟨subject, object⟩ pair list (the property-table layout) and
// returns every pair (u, v) with a directed path of length ≥ 1 from u to
// v — the input edges are therefore included. Nodes on a cycle reach
// themselves, so cycles produce reflexive pairs, matching RDFS semantics
// for subClassOf/subPropertyOf cycles.
//
// Close is Nuutila's algorithm (§4.1 of the paper) over the one
// condensation build, Condense: each node pairs with its component's
// strict reach set and, when the component is cyclic, with its own rank
// block. Every pair is emitted exactly once; the output ordering is
// unspecified, callers sort it into table order.
func Close(pairs []uint64) []uint64 {
	if len(pairs) == 0 {
		return nil
	}
	g := Condense(pairs)
	total := 0
	for c, size := range g.Size {
		per := g.Up[c].Cardinality()
		if g.Cyclic[c] {
			per += int(size)
		}
		total += int(size) * per
	}
	out := make([]uint64, 0, 2*total)
	for v, id := range g.IDs {
		c := g.SCC[v]
		spans := g.Up[c].Spans()
		for i := 0; i < len(spans); i += 2 {
			for r := spans[i]; r <= spans[i+1]; r++ {
				out = append(out, id, g.IDs[g.At[r]])
			}
		}
		if g.Cyclic[c] {
			for r := g.First[c]; r < g.First[c]+g.Size[c]; r++ {
				out = append(out, id, g.IDs[g.At[r]])
			}
		}
	}
	return out
}

// Condensation is the strong-component condensation of a graph given as
// a flat ⟨sub, super⟩ pair list: the one Nuutila build behind both the θ
// stage (Close) and the hierarchy interval index. Nodes get dense local
// indexes in id order; Tarjan numbers the components in reverse
// topological order, so every quotient edge goes from a higher component
// to a lower one; and every component owns one contiguous block of a
// dense preorder rank space, so reach sets are interval sets over ranks.
type Condensation struct {
	IDs []uint64 // sorted distinct node ids; a node's local index is its position

	SCC    []int32 // local index → component
	Cyclic []bool  // per component: two or more members, or a self-loop edge

	Rank  []int32 // local index → preorder rank
	At    []int32 // rank → local index
	First []int32 // per component: the first rank of its member block
	Size  []int32 // per component: member count

	// Up holds per component the ranks of the nodes a path of length ≥ 1
	// reaches outside the component itself (a cyclic component adds its
	// own block at query time).
	Up []IntervalSet

	// The quotient adjacency, downward, in CSR form: DirectSubs(c) is
	// subs[subStart[c]:subStart[c+1]].
	subStart, subs []int32

	// slots is the id → local index table: open addressing over a
	// power-of-two array at most half full, so resolving an id is one
	// multiplicative-hash probe and a short linear scan.
	slots []slot
	shift uint // 64 − log2(len(slots))
}

// Condense builds the condensation of the ⟨sub, super⟩ edge list. The
// build is deterministic in the edge list.
func Condense(pairs []uint64) *Condensation {
	g := &Condensation{}
	if len(pairs) == 0 {
		return g
	}
	g.IDs = collectNodes(pairs)
	n := len(g.IDs)
	g.buildSlots()
	from := make([]int32, len(pairs)/2)
	to := make([]int32, len(pairs)/2)
	for e := range from {
		from[e], _ = g.Lookup(pairs[2*e]) // every endpoint is a node
		to[e], _ = g.Lookup(pairs[2*e+1])
	}
	start, adj := csr(n, from, to)
	scc, nscc, cyclic := tarjanSCC(n, start, adj)
	g.SCC, g.Cyclic = scc, cyclic

	// Quotient edges, deduplicated by sort and compact: the sub
	// component in the high word, so they come out grouped by sub in
	// ascending (= reverse topological) order, supers ascending.
	q := make([]uint64, 0, len(from))
	for e := range from {
		if s, t := scc[from[e]], scc[to[e]]; s != t {
			q = append(q, uint64(s)<<32|uint64(t))
		}
	}
	slices.Sort(q)
	q = slices.Compact(q)
	qs, qt := make([]int32, len(q)), make([]int32, len(q))
	for i, k := range q {
		qs[i], qt[i] = int32(k>>32), int32(k)
	}
	g.subStart, g.subs = csr(nscc, qt, qs)

	g.assignRanks(nscc)

	// Strict up sets in ascending component order: a super's set is
	// final before any of its subs reads it.
	g.Up = make([]IntervalSet, nscc)
	for i := range q {
		g.Absorb(&g.Up[qs[i]], g.Up, qt[i])
	}
	return g
}

// assignRanks walks the condensation from the tops down the super → sub
// edges, giving every component one contiguous member block and — for
// the common tree-shaped hierarchy — every subtree a contiguous rank
// range, which keeps the reach interval sets near-minimal (the LiteMat
// property). Ascending component order visits supers first, so every
// component is reached; members sit in their block in id order.
func (g *Condensation) assignRanks(nscc int) {
	n := len(g.IDs)
	g.First = make([]int32, nscc)
	g.Size = make([]int32, nscc)
	for _, c := range g.SCC {
		g.Size[c]++
	}
	visited := make([]bool, nscc)
	var next int32
	var stack []int32
	for root := int32(0); root < int32(nscc); root++ {
		if visited[root] {
			continue
		}
		visited[root] = true
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.First[c] = next
			next += g.Size[c]
			// Push subs in reverse so the lowest-numbered one is visited
			// first (pure determinism; any fixed order is correct).
			subs := g.DirectSubs(c)
			for i := len(subs) - 1; i >= 0; i-- {
				if !visited[subs[i]] {
					visited[subs[i]] = true
					stack = append(stack, subs[i])
				}
			}
		}
	}
	g.Rank = make([]int32, n)
	g.At = make([]int32, n)
	fill := slices.Clone(g.First)
	for v, c := range g.SCC {
		g.Rank[v], g.At[fill[c]] = fill[c], int32(v)
		fill[c]++
	}
}

// DirectSubs returns the components with a quotient edge into c,
// ascending and distinct. The slice is shared; callers must not modify
// it.
func (g *Condensation) DirectSubs(c int32) []int32 {
	return g.subs[g.subStart[c]:g.subStart[c+1]]
}

// Absorb adds component t's rank block and sets[t] to s, unless the
// block is in s already — Nuutila's pruning: a block only ever enters a
// set together with everything its own set holds, so one rank probes it
// all.
func (g *Condensation) Absorb(s *IntervalSet, sets []IntervalSet, t int32) {
	if s.Contains(g.First[t]) {
		return
	}
	s.AddRange(g.First[t], g.First[t]+g.Size[t]-1)
	s.UnionWith(&sets[t])
}

// collectNodes returns the sorted distinct node IDs of the pair list.
func collectNodes(pairs []uint64) []uint64 {
	nodes := slices.Clone(pairs)
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// csr groups the edges from[e] → to[e] over n nodes by source: node v's
// targets are adj[start[v]:start[v+1]], in edge order.
func csr(n int, from, to []int32) (start, adj []int32) {
	start = make([]int32, n+1)
	for _, s := range from {
		start[s+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	adj = make([]int32, len(from))
	fill := slices.Clone(start[:n])
	for e, s := range from {
		adj[fill[s]] = to[e]
		fill[s]++
	}
	return start, adj
}

// slot is one entry of the lookup table; ref is the local index plus
// one, zero marking an empty slot.
type slot struct {
	id  uint64
	ref int32
}

// buildSlots fills the lookup table from the node list.
func (g *Condensation) buildSlots() {
	size := 4
	for size < 2*len(g.IDs) {
		size <<= 1
	}
	g.slots = make([]slot, size)
	g.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for l, id := range g.IDs {
		i := g.home(id)
		for g.slots[i].ref != 0 {
			i = (i + 1) & (size - 1)
		}
		g.slots[i] = slot{id, int32(l) + 1}
	}
}

// home returns the slot an id hashes to (Fibonacci hashing: ids are
// dense, the multiply spreads them).
func (g *Condensation) home(id uint64) int {
	return int((id * 0x9E3779B97F4A7C15) >> g.shift)
}

// Lookup returns the local index of a node id. It sits under every
// per-class step of the hierarchy index.
func (g *Condensation) Lookup(id uint64) (int32, bool) {
	if len(g.slots) == 0 {
		return 0, false
	}
	for i := g.home(id); ; i = (i + 1) & (len(g.slots) - 1) {
		switch sl := g.slots[i]; {
		case sl.ref == 0:
			return 0, false
		case sl.id == id:
			return sl.ref - 1, true
		}
	}
}

// tarjanSCC computes strongly connected components over a CSR graph with
// an iterative Tarjan traversal. It returns the SCC id of every node, the
// SCC count, and a per-SCC flag telling whether the component carries a
// cycle (size > 1, or a explicit self-loop edge). SCC ids are assigned in
// reverse topological order of the condensation.
func tarjanSCC(n int, adjStart, adj []int32) (scc []int32, nscc int, selfLoop []bool) {
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	scc = make([]int32, n)
	for i := range index {
		index[i] = unvisited
		scc[i] = unvisited
	}

	var stack []int32
	type frame struct {
		v  int32
		ei int32 // next adjacency offset to explore
	}
	var call []frame
	var counter int32
	var hasSelf []bool // per-scc, grown as SCCs are produced

	for root := int32(0); root < int32(n); root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call[:0], frame{root, adjStart[root]})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.ei < adjStart[v+1] {
				w := adj[f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{w, adjStart[w]})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			// v is finished.
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				id := int32(nscc)
				size := 0
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc[w] = id
					size++
					if w == v {
						break
					}
				}
				hasSelf = append(hasSelf, size > 1)
				nscc++
			}
		}
	}

	// Explicit self-loop edges also make a singleton SCC cyclic.
	for v := int32(0); v < int32(n); v++ {
		for ei := adjStart[v]; ei < adjStart[v+1]; ei++ {
			if adj[ei] == v {
				hasSelf[scc[v]] = true
			}
		}
	}
	return scc, nscc, hasSelf
}

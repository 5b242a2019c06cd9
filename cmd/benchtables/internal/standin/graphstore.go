// Package standin holds the competitor architectures that only the
// paper's tables run (cmd/benchtables; DESIGN.md §3). The real
// competitors are closed or JVM systems; what the paper contrasts is
// their algorithmic designs, which these reproduce in Go:
//
//   - GraphEngine — an object-graph statement store with naive full
//     re-evaluation and per-triple existence checks, standing in for the
//     Sesame/OWLIM linked-statement design;
//   - WebPIEEngine — MapReduce forward chaining over an in-memory
//     MapReduce framework (RunJob), standing in for WebPIE;
//   - LSDRadixPairs, MergesortPairs and QuicksortPairs — the generic
//     pair sorts Table 1 sets against internal/sorting's (§5.4).
//
// The RDFox-like column is baseline.HashJoinEngine, which stays in the
// library because the tests use it as their oracle.
package standin

import (
	"inferray/internal/baseline"
	"inferray/internal/rules"
)

// Fact is one encoded triple ⟨s, p, o⟩, shared with the hash-join
// engine so every column sees the same input.
type Fact = baseline.Fact

// GraphEngine models the Sesame/OWLIM-family design the paper describes
// (§2.2): the store is an object graph — statements in a linked list,
// with per-node adjacency chains — and inference is naive fixed-point:
// each round re-derives every rule instantiation over the full store and
// checks each candidate triple for existence before insertion. The
// pointer-chasing traversal and the absence of semi-naive deltas are the
// two behaviours that make this family slow on large inputs.
type GraphEngine struct {
	specs []rules.Spec

	nodes map[uint64]*graphNode
	stmts *statement // linked list head
	size  int
	exist map[Fact]struct{}
}

// graphNode is a resource vertex with chains of outgoing and incoming
// statements (the "linked list of statements" of §2.2).
type graphNode struct {
	id      uint64
	out, in *statement
}

// statement is a triple as a graph edge, threaded on three linked lists:
// the global statement list, the subject's out-chain and the object's
// in-chain.
type statement struct {
	s, p, o         uint64
	nextAll         *statement
	nextOut, nextIn *statement
}

// NewGraphEngine builds an engine for the given declarative ruleset.
func NewGraphEngine(specs []rules.Spec) *GraphEngine {
	return &GraphEngine{
		specs: specs,
		nodes: make(map[uint64]*graphNode),
		exist: make(map[Fact]struct{}),
	}
}

func (g *GraphEngine) node(id uint64) *graphNode {
	n, ok := g.nodes[id]
	if !ok {
		n = &graphNode{id: id}
		g.nodes[id] = n
	}
	return n
}

// Add inserts a fact into the graph; it reports whether it was new.
func (g *GraphEngine) Add(f Fact) bool {
	if _, ok := g.exist[f]; ok {
		return false
	}
	g.exist[f] = struct{}{}
	st := &statement{s: f[0], p: f[1], o: f[2], nextAll: g.stmts}
	g.stmts = st
	sn := g.node(f[0])
	st.nextOut = sn.out
	sn.out = st
	on := g.node(f[2])
	st.nextIn = on.in
	on.in = st
	g.size++
	return true
}

// Contains reports membership.
func (g *GraphEngine) Contains(f Fact) bool {
	_, ok := g.exist[f]
	return ok
}

// Size returns the number of statements.
func (g *GraphEngine) Size() int { return g.size }

// All returns every statement (walking the global linked list).
func (g *GraphEngine) All() []Fact {
	out := make([]Fact, 0, g.size)
	for st := g.stmts; st != nil; st = st.nextAll {
		out = append(out, Fact{st.s, st.p, st.o})
	}
	return out
}

// Materialize runs the naive fixpoint: every iteration applies every
// rule over the whole graph and inserts the non-duplicate results,
// stopping when an iteration derives nothing.
func (g *GraphEngine) Materialize() (derived, iterations int) {
	for {
		iterations++
		added := 0
		for i := range g.specs {
			spec := &g.specs[i]
			var b baseline.Binding
			g.matchAtoms(spec, 0, &b, func(f Fact) {
				if g.Add(f) {
					added++
				}
			})
		}
		derived += added
		if added == 0 {
			return derived, iterations
		}
	}
}

// matchAtoms enumerates matches for body atoms from index ai onward by
// walking statement chains (subject out-chain or object in-chain when
// bound, the global list otherwise).
func (g *GraphEngine) matchAtoms(spec *rules.Spec, ai int, b *baseline.Binding, emit func(Fact)) {
	if ai == len(spec.Body) {
		if d := spec.Distinct; d[0] >= 0 {
			x, _ := b.Get(d[0])
			y, _ := b.Get(d[1])
			if x == y {
				return
			}
		}
		for _, h := range spec.Head {
			s, _ := baseline.Resolve(h.S, b)
			p, _ := baseline.Resolve(h.P, b)
			o, _ := baseline.Resolve(h.O, b)
			emit(Fact{s, p, o})
		}
		return
	}
	pat := spec.Body[ai]

	tryStmt := func(st *statement) {
		var bound [3]int
		n := 0
		ok := true
		unify := func(t rules.Term, v uint64) {
			if !ok {
				return
			}
			if !t.IsVar {
				if t.Const != v {
					ok = false
				}
				return
			}
			if cur, set := b.Get(t.Var); set {
				if cur != v {
					ok = false
				}
				return
			}
			b.Bind(t.Var, v)
			bound[n] = t.Var
			n++
		}
		unify(pat.S, st.s)
		unify(pat.P, st.p)
		unify(pat.O, st.o)
		if ok {
			g.matchAtoms(spec, ai+1, b, emit)
		}
		for i := 0; i < n; i++ {
			b.Unbind(bound[i])
		}
	}

	// Pick a chain: subject-bound → out-chain, object-bound → in-chain,
	// otherwise the full statement list. Each step is a pointer chase.
	if s, ok := baseline.Resolve(pat.S, b); ok {
		if n := g.nodes[s]; n != nil {
			for st := n.out; st != nil; st = st.nextOut {
				tryStmt(st)
			}
		}
		return
	}
	if o, ok := baseline.Resolve(pat.O, b); ok {
		if n := g.nodes[o]; n != nil {
			for st := n.in; st != nil; st = st.nextIn {
				tryStmt(st)
			}
		}
		return
	}
	for st := g.stmts; st != nil; st = st.nextAll {
		tryStmt(st)
	}
}

package baseline

import "inferray/internal/rules"

// HashJoinEngine is a semi-naive datalog evaluator over hash-indexed
// triples: every join step is an index probe, so memory access is
// random (pointer- and hash-bucket-chasing), in contrast to Inferray's
// sequential sort-merge scans. It plays the role of RDFox in the
// benchmark tables: algorithmically strong (semi-naive, indexed), but
// with a cache-hostile access pattern on complex rulesets.
type HashJoinEngine struct {
	Store *TripleSet
	specs []rules.Spec
}

// NewHashJoinEngine builds an engine for the given declarative ruleset.
func NewHashJoinEngine(specs []rules.Spec) *HashJoinEngine {
	return &HashJoinEngine{Store: NewTripleSet(), specs: specs}
}

// Add inserts an input fact.
func (e *HashJoinEngine) Add(f Fact) { e.Store.Add(f) }

// Materialize runs the semi-naive fixpoint and returns the number of
// derived (new) facts and the number of iterations.
func (e *HashJoinEngine) Materialize() (derived, iterations int) {
	delta := append([]Fact(nil), e.Store.all...)
	for len(delta) > 0 {
		iterations++
		deltaSet := make(map[Fact]struct{}, len(delta))
		for _, f := range delta {
			deltaSet[f] = struct{}{}
		}
		var next []Fact
		emit := func(f Fact) {
			if e.Store.Add(f) {
				next = append(next, f)
				derived++
			}
		}
		for i := range e.specs {
			e.applySemiNaive(&e.specs[i], delta, deltaSet, emit)
		}
		delta = next
	}
	return derived, iterations
}

// applySemiNaive evaluates one rule with every choice of delta atom: the
// chosen body atom ranges over the delta facts, the others over the full
// store. The delta atom is always evaluated first — it is the most
// selective access path, and evaluating it later would enumerate the
// full store for the earlier atoms with no binding to narrow the delta
// side (quadratic blow-up). Duplicated derivations (several delta atoms
// matching new facts) are absorbed by the Add membership check.
func (e *HashJoinEngine) applySemiNaive(spec *rules.Spec, delta []Fact, deltaSet map[Fact]struct{}, emit func(Fact)) {
	for dpos := range spec.Body {
		order := make([]int, 0, len(spec.Body))
		order = append(order, dpos)
		for i := range spec.Body {
			if i != dpos {
				order = append(order, i)
			}
		}
		var b Binding
		e.matchAtomList(spec, order, 0, delta, deltaSet, &b, emit)
	}
}

// matchAtomList matches the body atoms in the given evaluation order,
// from position ai onward. order[0] is the delta atom, matched against
// the delta list; the rest probe the full store's indexes.
func (e *HashJoinEngine) matchAtomList(spec *rules.Spec, order []int, ai int, delta []Fact, deltaSet map[Fact]struct{}, b *Binding, emit func(Fact)) {
	if ai == len(spec.Body) {
		if d := spec.Distinct; d[0] >= 0 {
			x, _ := b.Get(d[0])
			y, _ := b.Get(d[1])
			if x == y {
				return
			}
		}
		for _, h := range spec.Head {
			s, _ := Resolve(h.S, b)
			p, _ := Resolve(h.P, b)
			o, _ := Resolve(h.O, b)
			emit(Fact{s, p, o})
		}
		return
	}
	pat := spec.Body[order[ai]]
	tryFact := func(f Fact) {
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
		unify(pat.S, f[0])
		unify(pat.P, f[1])
		unify(pat.O, f[2])
		if ok {
			e.matchAtomList(spec, order, ai+1, delta, deltaSet, b, emit)
		}
		for i := 0; i < n; i++ {
			b.Unbind(bound[i])
		}
	}

	if ai == 0 {
		for _, f := range delta {
			tryFact(f)
		}
		return
	}
	for _, f := range e.lookup(pat, b) {
		tryFact(f)
	}
}

// lookup picks the most selective hash index for a pattern under the
// current bindings and returns candidate facts.
func (e *HashJoinEngine) lookup(pat rules.Pattern, b *Binding) []Fact {
	s, sOK := Resolve(pat.S, b)
	p, pOK := Resolve(pat.P, b)
	o, oOK := Resolve(pat.O, b)
	ts := e.Store
	switch {
	case sOK && pOK && oOK:
		f := Fact{s, p, o}
		if ts.Contains(f) {
			return []Fact{f}
		}
		return nil
	case sOK && pOK:
		objs := ts.bySP[[2]uint64{s, p}]
		out := make([]Fact, len(objs))
		for i, oo := range objs {
			out[i] = Fact{s, p, oo}
		}
		return out
	case pOK && oOK:
		subs := ts.byPO[[2]uint64{p, o}]
		out := make([]Fact, len(subs))
		for i, ss := range subs {
			out[i] = Fact{ss, p, o}
		}
		return out
	case pOK:
		return ts.byP[p]
	case sOK:
		return ts.byS[s]
	case oOK:
		return ts.byO[o]
	}
	return ts.all
}

// Resolve evaluates a term under a binding; ok is false for an unbound
// variable.
func Resolve(t rules.Term, b *Binding) (uint64, bool) {
	if !t.IsVar {
		return t.Const, true
	}
	return b.Get(t.Var)
}

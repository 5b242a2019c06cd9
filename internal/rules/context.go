package rules

import (
	"inferray/internal/dictionary"
	"inferray/internal/hierarchy"
	"inferray/internal/store"
)

// Rule is one inference rule: a name for reporting and an Apply
// function that derives triples into ctx.Out. table5.go groups the rules
// by the paper's execution classes (§4.4). The read/write property
// footprints (see footprint.go) are attached by Rules and drive the
// reasoner's dependency scheduler.
type Rule struct {
	Name  string
	Apply func(ctx *Context)

	reads, writes Footprint
}

// Context carries one iteration's state into a rule application.
type Context struct {
	Main  *store.Store // all triples derived so far (normalized)
	Delta *store.Store // triples new in the previous iteration
	Out   *store.Store // this rule's private output (unsorted appends)
	V     *Vocab

	// Hier, when non-nil, is the hierarchy interval index of the
	// encoded engine: the transitive subClassOf/subPropertyOf closure
	// and the rdf:type triples it entails are virtual (answered by the
	// index, never stored), and the rules that would materialize or
	// join against that closure switch to interval-driven forms. The
	// reasoner only sets it while its bypass guards hold, so every
	// other rule may keep reading stored tables unchanged.
	Hier *hierarchy.Index

	// Terms hands out the rule's own term set, empty and sized to the
	// dictionary's IDs, among which every ID in the stores lies: the γ
	// typings deduplicate instances in it and EQ-REP tests members. A
	// rule that never asks for it costs the set nothing.
	Terms func() *store.TermSet
}

// FirstPass reports whether this is the first iteration, where delta and
// main are the same store (Algorithm 1 line 3) and rules must join each
// antecedent combination only once.
func (c *Context) FirstPass() bool { return c.Delta == c.Main }

// hierChanged reports whether an encoded rule must re-sweep all of Main,
// not just the delta, against the hierarchy whose raw edges table edges
// holds (subClassOf or subPropertyOf): on the first pass, and when the
// delta holds such edges — the round that merged them rebuilt Hier.
func (c *Context) hierChanged(edges int) bool {
	return c.FirstPass() || c.deltaTable(edges) != nil
}

// mainTable returns the normalized main table at pidx, or nil when empty.
func (c *Context) mainTable(pidx int) *store.Table {
	t := c.Main.Table(pidx)
	if t == nil || t.Empty() {
		return nil
	}
	return t
}

// deltaTable returns the delta table at pidx, or nil when empty.
func (c *Context) deltaTable(pidx int) *store.Table {
	t := c.Delta.Table(pidx)
	if t == nil || t.Empty() {
		return nil
	}
	return t
}

// propIndexOf converts a term ID to a property-table index, reporting
// whether the ID actually lies on the property side of the numbering.
func propIndexOf(id uint64) (int, bool) {
	if !dictionary.IsProperty(id) {
		return 0, false
	}
	return dictionary.PropIndex(id), true
}

// tablePass describes one semi-naive pass: the A-side and B-side stores
// to take the two antecedents from.
type tablePass struct{ a, b *store.Store }

// passes returns the semi-naive pass list: on the first iteration a
// single Main⋈Main pass; afterwards Delta⋈Main and Main⋈Delta (Main
// already contains Delta, so this covers Delta⋈Delta too — duplicates
// are eliminated by the merge).
func (c *Context) passes() []tablePass {
	if c.FirstPass() {
		return []tablePass{{c.Main, c.Main}}
	}
	return []tablePass{{c.Delta, c.Main}, {c.Main, c.Delta}}
}

// view returns the flat key/payload list of a table: subject-keyed order
// (⟨s,o⟩, the primary list) or object-keyed order (⟨o,s⟩, the cached OS
// view).
func view(t *store.Table, keyOnSubject bool) []uint64 {
	if keyOnSubject {
		return t.Pairs()
	}
	return t.OS()
}

// mergeJoin joins two key-sorted flat key/payload lists, invoking emit
// for every pair of entries with equal keys (full cross product within
// runs). Both lists are scanned sequentially — the sort-merge join of
// §4.2.
func mergeJoin(a, b []uint64, emit func(key, apay, bpay uint64)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i += 2
		case a[i] > b[j]:
			j += 2
		default:
			k := a[i]
			iEnd := i
			for iEnd < len(a) && a[iEnd] == k {
				iEnd += 2
			}
			jEnd := j
			for jEnd < len(b) && b[jEnd] == k {
				jEnd += 2
			}
			for x := i; x < iEnd; x += 2 {
				for y := j; y < jEnd; y += 2 {
					emit(k, a[x+1], b[y+1])
				}
			}
			i, j = iEnd, jEnd
		}
	}
}

// alphaJoin runs the α-rule pattern: join table aProp (keyed on subject
// or object) with table bProp, semi-naively, emitting the two payloads
// for every match.
func (c *Context) alphaJoin(aProp int, aOnSubj bool, bProp int, bOnSubj bool, emit func(apay, bpay uint64)) {
	for _, p := range c.passes() {
		at := p.a.Table(aProp)
		bt := p.b.Table(bProp)
		if at == nil || at.Empty() || bt == nil || bt.Empty() {
			continue
		}
		mergeJoin(view(at, aOnSubj), view(bt, bOnSubj), func(_, apay, bpay uint64) {
			emit(apay, bpay)
		})
	}
}

// markerSubjects returns, ascending, the subjects s with ⟨s, rdf:type,
// marker⟩ in the given type table (nil-safe). It reads the table's ⟨o,s⟩
// list when one is cached and scans the pairs otherwise: building the
// list would sort a copy of the whole table to find one run.
func markerSubjects(typeTable *store.Table, marker uint64) []uint64 {
	if typeTable == nil || typeTable.Empty() {
		return nil
	}
	var subs []uint64
	if os, ok := typeTable.CachedOS(); ok {
		lo, hi := store.KeyRun(os, marker)
		for i := lo; i < hi; i++ {
			subs = append(subs, os[2*i+1])
		}
		return subs
	}
	pairs := typeTable.Pairs()
	for i := 1; i < len(pairs); i += 2 {
		if pairs[i] == marker {
			subs = append(subs, pairs[i-1])
		}
	}
	return subs
}

// markedProperties returns, ascending, the table indexes of the
// properties p with ⟨p, rdf:type, marker⟩ in the given type table
// (nil-safe). Property IDs sort before every resource ID, so those pairs
// are the table's leading subject runs: the scan ends where the first
// resource subject begins.
func markedProperties(typeTable *store.Table, marker uint64) []int {
	if typeTable == nil {
		return nil
	}
	var out []int
	pairs := typeTable.Pairs()
	end := store.GallopLowerBound(pairs, len(pairs)/2, 0, dictionary.PropBase+1)
	for i := 0; i < end; i++ {
		if pairs[2*i+1] == marker {
			out = append(out, dictionary.PropIndex(pairs[2*i]))
		}
	}
	return out
}

// TransitiveProps lists the property-table indexes of the properties st
// declares transitive: the subjects of ⟨p rdf:type owl:TransitiveProperty⟩
// that lie on the property side of the numbering. The reasoner's θ step
// enumerates the PRP-TRP tables through it.
func TransitiveProps(st *store.Store, v *Vocab) []int {
	return markedProperties(st.Table(v.Type), v.TransitiveProp)
}

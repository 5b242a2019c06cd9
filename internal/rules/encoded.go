package rules

import (
	"inferray/internal/hierarchy"
	"inferray/internal/store"
)

// This file holds the interval-driven rule forms used when the
// hierarchy encoding is active (Context.Hier non-nil). The rules keep
// their Table 5 names — the declarative footprints in spec.go stay
// valid, and the scheduler fires them on the same delta tables — but
// their bodies read the hierarchy index instead of the
// materialized subsumption closure. The correctness argument for each
// form, and for the rules that need no encoded form at all, is laid out
// in DESIGN.md §10.

// encodedSchemaExpand is the interval form of the four schema-expansion
// α rules. For every ⟨p, c⟩ pair of the schema table it emits, into the
// same table, either ⟨p, super⟩ for every visible super of c (up — the
// SCM-DOM1/SCM-RNG1 shape, expanding along subClassOf) or ⟨sub, c⟩ for
// every visible sub of p (down — the SCM-DOM2/SCM-RNG2 shape, expanding
// along subPropertyOf). Semi-naive bookkeeping: normally only the delta
// schema pairs are swept (the hierarchy is unchanged, so old pairs can
// derive nothing new); when changed (Context.hierChanged: the first
// pass, or a delta holding raw edges of the hierarchy expanded along)
// the whole main schema table is re-swept against the fresh intervals.
//
// The up form skips a class c when another class m of p's run in the
// main table lies strictly below it: c's supers are among m's, and m's
// chain down to a minimal class was expanded in the pass that swept it
// in, this one or an earlier one, because runs only grow between sweeps.
// A cycle mate does not count: ⟨p, m⟩ can itself be derived from ⟨p, c⟩
// when c and m are equivalent, and a retraction of ⟨p, c⟩ must then reach
// ⟨p, m⟩ through c's expansion (DESIGN.md §10 "What the rules stop
// doing").
func encodedSchemaExpand(c *Context, schemaPidx int, up bool) {
	rel, edges := c.Hier.Props, c.V.SubPropertyOf
	if up {
		rel, edges = c.Hier.Classes, c.V.SubClassOf
	}
	var t *store.Table
	if c.hierChanged(edges) {
		t = c.mainTable(schemaPidx)
	} else {
		t = c.deltaTable(schemaPidx)
	}
	if t == nil {
		return
	}
	out := c.Out.Ensure(schemaPidx)
	pairs := t.Pairs()
	if !up {
		for i := 0; i < len(pairs); i += 2 {
			p, cls := pairs[i], pairs[i+1]
			rel.Subs(p, func(sub uint64) bool {
				out.Append(sub, cls)
				return true
			})
		}
		return
	}
	min := minimalRun{schema: c.mainTable(schemaPidx), rel: rel, strict: true}
	for i := 0; i < len(pairs); {
		p := pairs[i]
		min.seek(p)
		for ; i < len(pairs) && pairs[i] == p; i += 2 {
			if cls := pairs[i+1]; min.minimal(cls) {
				rel.Supers(cls, func(super uint64) bool {
					out.Append(p, super)
					return true
				})
			}
		}
	}
}

// minimalRun settles, once per schema run, which classes of property
// p's rdfs:domain / rdfs:range run in the main store are minimal under
// the visible subsumption order. With the encoding active, typing
// instances with the minimal classes suffices: the interval expansion
// supplies every visible super, so ⟨x type c⟩ for a non-minimal c is
// already virtual once ⟨x type min⟩ is stored. Mutually subsuming
// classes (one cyclic strong component) keep the smallest id as their
// sole representative, which keeps the relation well-founded — unless
// strict is set, as for the up form of encodedSchemaExpand: then only a
// class strictly below makes a class non-minimal, and every member of a
// cycle with nothing below it in the run counts as minimal.
type minimalRun struct {
	schema *store.Table // the main store's schema table, nil when empty
	rel    *hierarchy.Relation
	strict bool
	sc     hierarchy.RunScratch

	from     int      // gallop cursor into schema: properties arrive ascending
	run      []uint64 // p's run in schema
	shadowed []bool   // aligned with run; nil when every class is minimal
	at       int      // walk cursor into run: classes arrive ascending
}

// seek moves to property p's run. Properties must be probed in
// ascending order.
func (m *minimalRun) seek(p uint64) {
	m.run, m.shadowed, m.at = nil, nil, 0
	if m.schema == nil {
		return
	}
	lo, hi := m.schema.SubjectRunFrom(p, m.from)
	m.from = hi
	m.run = m.schema.Pairs()[2*lo : 2*hi]
	if m.strict {
		m.shadowed = m.rel.StrictlyShadowed(m.run, &m.sc)
	} else {
		m.shadowed = m.rel.Shadowed(m.run, &m.sc)
	}
}

// minimal reports whether cls is minimal in the current run. Classes of
// one property must be probed in ascending order; a class the main run
// does not hold shadows nothing there and counts as minimal.
func (m *minimalRun) minimal(cls uint64) bool {
	if m.shadowed == nil {
		return true
	}
	for m.at < len(m.shadowed) && m.run[2*m.at+1] < cls {
		m.at++
	}
	return m.at == len(m.shadowed) || m.run[2*m.at+1] != cls || !m.shadowed[m.at]
}

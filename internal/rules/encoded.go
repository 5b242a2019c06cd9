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
// derive nothing new); when the hierarchy itself changed — or on the
// first pass — the whole main schema table is re-swept against the
// fresh intervals.
func encodedSchemaExpand(c *Context, schemaPidx int, rel *hierarchy.Relation, changed, up bool) {
	var t *store.Table
	if c.FirstPass() || changed {
		t = c.mainTable(schemaPidx)
	} else {
		t = c.deltaTable(schemaPidx)
	}
	if t == nil {
		return
	}
	out := c.Out.Ensure(schemaPidx)
	pairs := t.RawPairs()
	for i := 0; i < len(pairs); i += 2 {
		p, cls := pairs[i], pairs[i+1]
		if up {
			rel.Supers(cls, func(super uint64) bool {
				out.Append(p, super)
				return true
			})
		} else {
			rel.Subs(p, func(sub uint64) bool {
				out.Append(sub, cls)
				return true
			})
		}
	}
}

// minimalClass reports whether cls is a minimal element of property p's
// schema run (its rdfs:domain or rdfs:range class set in the main
// store) under the visible subsumption order. With the encoding active,
// typing instances with the minimal classes suffices: the interval
// expansion supplies every visible super, so ⟨x type c⟩ for a
// non-minimal c is already virtual once ⟨x type min⟩ is stored.
// Mutually subsuming classes (one cyclic strong component) keep the
// smallest id as their sole representative, which keeps the relation
// well-founded.
func minimalClass(c *Context, schemaPidx int, p, cls uint64) bool {
	mt := c.mainTable(schemaPidx)
	if mt == nil {
		return true
	}
	pairs := mt.Pairs()
	lo, hi := mt.SubjectRun(p)
	for i := lo; i < hi; i++ {
		other := pairs[2*i+1]
		if other == cls || !c.Hier.Classes.Subsumes(other, cls) {
			continue
		}
		if !c.Hier.Classes.Subsumes(cls, other) || other < cls {
			return false // other is strictly below, or the cycle representative
		}
	}
	return true
}

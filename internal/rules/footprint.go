package rules

import (
	"fmt"
	"slices"
	"strings"

	"inferray/internal/dictionary"
	"inferray/internal/store"
)

// This file derives, for every rule, a declared property footprint: the
// property tables a rule may read its antecedents from (Reads) and the
// tables its consequents may land in (Writes). Footprints drive the
// reasoner's scheduler: an iteration only fires the rules whose read
// footprint meets a non-empty table of the previous round's delta.
// Rules attaches each rule's footprint from the declarative Specs it
// builds the rule from, never from a hand-written list, so the patterns
// in spec.go and the rules table5.go executes cannot drift apart. The
// vocabulary of the hierarchy encoding's bypass guards is derived from
// the same patterns (Guards).

// Footprint is the set of property tables a rule reads or writes.
// Wildcard marks rules that can touch arbitrary data property tables
// (a pattern with a variable in predicate position, e.g. PRP-DOM's
// ⟨x p y⟩ antecedent or PRP-SPO1's ⟨x p2 y⟩ consequent).
type Footprint struct {
	Props    []int // sorted dense property-table indexes
	Wildcard bool
}

// Has reports whether the footprint names the property index explicitly.
func (fp Footprint) Has(pidx int) bool {
	_, found := slices.BinarySearch(fp.Props, pidx)
	return found
}

// Empty reports whether the footprint covers no table at all.
func (fp Footprint) Empty() bool { return !fp.Wildcard && len(fp.Props) == 0 }

// Triggered reports whether any non-empty table of st falls inside the
// footprint. A wildcard footprint is triggered by any non-empty table.
func (fp Footprint) Triggered(st *store.Store) bool {
	if fp.Wildcard {
		return !st.Empty()
	}
	for _, p := range fp.Props {
		if t := st.Table(p); t != nil && !t.Empty() {
			return true
		}
	}
	return false
}

// String renders the footprint for diagnostics.
func (fp Footprint) String() string {
	parts := make([]string, 0, len(fp.Props)+1)
	for _, p := range fp.Props {
		parts = append(parts, fmt.Sprintf("%d", p))
	}
	if fp.Wildcard {
		parts = append(parts, "*")
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Reads returns the rule's antecedent footprint: the property tables a
// delta must touch for the rule to possibly derive something new.
func (r *Rule) Reads() Footprint { return r.reads }

// Writes returns the rule's consequent footprint: the property tables
// the rule can emit into.
func (r *Rule) Writes() Footprint { return r.writes }

// add folds a pattern's predicate into the footprint: a variable makes
// it a wildcard, a property constant adds its table.
func (fp *Footprint) add(t Term) {
	if t.IsVar {
		fp.Wildcard = true
		return
	}
	if !dictionary.IsProperty(t.Const) {
		return
	}
	p := dictionary.PropIndex(t.Const)
	if i, found := slices.BinarySearch(fp.Props, p); !found {
		fp.Props = slices.Insert(fp.Props, i, p)
	}
}

// Guarded is the vocabulary of the hierarchy encoding's bypass guards
// (DESIGN.md §10), derived from the specs by Guards: the marker classes,
// ascending, that G1 keeps free of subclasses, and the table sides G2
// keeps the encoded predicates out of.
type Guarded struct {
	Markers []uint64
	Sides   []Side
}

// Side is a property table's subjects or, with Object, its objects.
type Side struct {
	Pidx   int
	Object bool
}

// Guards walks the specs of all five fragments, so its sets are one for
// every fragment. A marker is the constant object of a ⟨?x rdf:type C⟩
// body pattern. A variable is read when it is the predicate of a body
// pattern (PRP-DOM reads rdfs:domain's subjects so) or sits at a guarded
// side of a head pattern (EQ-SYM maps owl:sameAs's subjects onto the
// objects EQ-REP-P reads); to a fixpoint, the body sides that bind a read
// variable are guarded unless one of them already is.
func Guards(v *Vocab) (g Guarded) {
	var specs []Spec
	for f := RhoDF; f <= RDFSPlusFull; f++ {
		specs = append(specs, Specs(f, v)...)
	}
	guarded := func(sd Side) bool { return slices.Contains(g.Sides, sd) }
	var binds, heads []Side
	for grew := true; grew; {
		grew = false
		for _, s := range specs {
			for _, p := range s.Body {
				if p.P == C(dictionary.PropID(v.Type)) && p.S.IsVar && !p.O.IsVar {
					g.Markers = append(g.Markers, p.O.Const)
				}
				for _, x := range [3]Term{p.S, p.P, p.O} {
					read := false
					binds = binds[:0]
					for _, q := range s.Body {
						read = read || x.IsVar && q.P == x
						binds = sidesOf(q, x, binds)
					}
					for _, h := range s.Head {
						heads = sidesOf(h, x, heads[:0])
						read = read || slices.ContainsFunc(heads, guarded)
					}
					if read && !slices.ContainsFunc(binds, guarded) {
						for _, sd := range binds {
							if !guarded(sd) {
								g.Sides, grew = append(g.Sides, sd), true
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(g.Markers)
	g.Markers = slices.Compact(g.Markers)
	return g
}

// sidesOf appends to out the sides at which p binds the variable x;
// none for a constant x or a variable predicate.
func sidesOf(p Pattern, x Term, out []Side) []Side {
	for i, end := range [2]Term{p.S, p.O} {
		if !p.P.IsVar && x.IsVar && end == x {
			out = append(out, Side{dictionary.PropIndex(p.P.Const), i == 1})
		}
	}
	return out
}

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
// in spec.go and the rules table5.go executes cannot drift apart.

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

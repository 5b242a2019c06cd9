package rules

import (
	"fmt"
	"sort"
	"strings"

	"inferray/internal/dictionary"
	"inferray/internal/store"
)

// This file derives, for every rule, a declared property footprint: the
// property tables a rule may read its antecedents from (Reads) and the
// tables its consequents may land in (Writes). Footprints drive the
// reasoner's scheduler: an iteration only fires the rules whose read
// footprint meets a non-empty table of the previous round's delta.
// Footprints are computed from the declarative Specs —
// never hand-written per optimized implementation — so the patterns in
// spec.go and the executable rules in table5.go cannot drift apart: a
// rule whose name resolves to no spec fails AnnotateFootprints (and the
// footprint tests) outright.

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
	i := sort.SearchInts(fp.Props, pidx)
	return i < len(fp.Props) && fp.Props[i] == pidx
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
// Populated by AnnotateFootprints.
func (r *Rule) Reads() Footprint { return r.reads }

// Writes returns the rule's consequent footprint: the property tables
// the rule can emit into. Populated by AnnotateFootprints.
func (r *Rule) Writes() Footprint { return r.writes }

// specSources maps the optimized rule names of table5.go that fuse
// several Table 5 rules into one implementation back to the spec names
// they cover. Rules absent from this map carry their spec's own name.
var specSources = map[string][]string{
	// The single-loop same-as rule covers the three replication rules
	// (§4.4 "same-as rules").
	"EQ-REP": {"EQ-REP-S", "EQ-REP-O", "EQ-REP-P"},
}

// footprintBuilder accumulates pattern predicates into a Footprint.
type footprintBuilder struct {
	props    map[int]bool
	wildcard bool
}

func (b *footprintBuilder) add(t Term) {
	if t.IsVar {
		b.wildcard = true
		return
	}
	if dictionary.IsProperty(t.Const) {
		if b.props == nil {
			b.props = make(map[int]bool)
		}
		b.props[dictionary.PropIndex(t.Const)] = true
	}
}

func (b *footprintBuilder) build() Footprint {
	props := make([]int, 0, len(b.props))
	for p := range b.props {
		props = append(props, p)
	}
	sort.Ints(props)
	return Footprint{Props: props, Wildcard: b.wildcard}
}

// AnnotateFootprints derives and attaches the read/write footprint of
// every rule in rs from the fragment's declarative specs. It returns an
// error when a rule's name, or one of the specs a fused rule covers,
// resolves to no spec — the drift guard between table5.go and spec.go.
func AnnotateFootprints(rs []Rule, f Fragment, v *Vocab) error {
	specs := Specs(f, v)
	byName := make(map[string]*Spec, len(specs))
	for i := range specs {
		byName[specs[i].Name] = &specs[i]
	}
	for i := range rs {
		names, ok := specSources[rs[i].Name]
		if !ok {
			names = []string{rs[i].Name}
		}
		var reads, writes footprintBuilder
		for _, name := range names {
			sp, ok := byName[name]
			if !ok {
				return fmt.Errorf("rules: rule %q has no declarative spec %s in fragment %s (footprint drift)",
					rs[i].Name, name, f)
			}
			for _, pat := range sp.Body {
				reads.add(pat.P)
			}
			for _, pat := range sp.Head {
				writes.add(pat.P)
			}
		}
		rs[i].reads = reads.build()
		rs[i].writes = writes.build()
	}
	return nil
}

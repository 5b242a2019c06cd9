package rules

import (
	"fmt"
	"slices"
)

// Fragment identifies one of the rulesets of Table 5.
type Fragment int

// The rule fragments Inferray supports (§1, §6 "Rulesets"). RhoDF is the
// minimal ρdf subset; RDFSDefault is the pragmatic RDFS used by working
// systems (two-way-join rules only); RDFSFull adds the single-antecedent
// rules that "satisfy the logician" (RDFS 4/6/8/10/12/13); RDFSPlus is
// the Allemang–Hendler fragment with the owl: constructs; RDFSPlusFull
// additionally enables the SCM-CLS/DP/OP housekeeping rules.
const (
	RhoDF Fragment = iota
	RDFSDefault
	RDFSFull
	RDFSPlus
	RDFSPlusFull
)

// String returns the fragment's conventional name.
func (f Fragment) String() string {
	switch f {
	case RhoDF:
		return "rhodf"
	case RDFSDefault:
		return "rdfs-default"
	case RDFSFull:
		return "rdfs-full"
	case RDFSPlus:
		return "rdfs-plus"
	case RDFSPlusFull:
		return "rdfs-plus-full"
	}
	return "unknown"
}

// ParseFragment resolves a fragment by the name String prints; no
// other spelling is accepted.
func ParseFragment(name string) (Fragment, error) {
	for f := RhoDF; f <= RDFSPlusFull; f++ {
		if f.String() == name {
			return f, nil
		}
	}
	return 0, fmt.Errorf("rules: unknown fragment %q", name)
}

// UsesSameAs reports whether the fragment includes the owl:sameAs
// machinery (equality closure, EQ-* rules).
func (f Fragment) UsesSameAs() bool { return f == RDFSPlus || f == RDFSPlusFull }

// Rules returns the executable rules of a fragment: one per table5 row
// that its Specs name, in Specs' order, each with the read and write
// footprint of the specs the row covers. θ-class specs yield no rule:
// the reasoner's θ step closes those tables after every merge. A spec
// that no row implements panics: spec.go and table5.go have drifted.
func Rules(f Fragment, v *Vocab) []Rule { return build(Specs(f, v)) }

// specRows maps every spec name to the name of the table5 row that
// implements it.
var specRows = func() map[string]string {
	m := make(map[string]string)
	for name, r := range table5 {
		if r.fuses == nil {
			m[name] = name
		}
		for _, s := range r.fuses {
			m[s] = name
		}
	}
	return m
}()

// build is Rules over a given spec list.
func build(specs []Spec) []Rule {
	var rs []Rule
	for _, sp := range specs {
		name, ok := specRows[sp.Name]
		if !ok {
			panic(fmt.Sprintf("rules: spec %s has no implementation in table5", sp.Name))
		}
		apply := table5[name].apply
		if apply == nil {
			continue
		}
		k := slices.IndexFunc(rs, func(r Rule) bool { return r.Name == name })
		if k < 0 {
			k = len(rs)
			rs = append(rs, Rule{Name: name, Apply: apply})
		}
		for _, pat := range sp.Body {
			rs[k].reads.add(pat.P)
		}
		for _, pat := range sp.Head {
			rs[k].writes.add(pat.P)
		}
	}
	return rs
}

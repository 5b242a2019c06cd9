package rules

import "inferray/internal/dictionary"

// This file gives a declarative, pattern-based description of every rule
// of Table 5, and is the one place that says which rules a fragment has:
// Rules builds the executable list from Specs through table5.go's
// implementations, and attaches each rule's footprint from its specs'
// patterns. The specs are also consumed by the hash-join test oracle
// (internal/baseline), the benchmark stand-ins, and the test oracles
// that check the optimized rules against an independent evaluation.

// Term is a pattern position: either a variable slot or a constant ID.
type Term struct {
	IsVar bool
	Var   int
	Const uint64
}

// V makes a variable term.
func V(slot int) Term { return Term{IsVar: true, Var: slot} }

// C makes a constant term.
func C(id uint64) Term { return Term{Const: id} }

// Pattern is one triple pattern ⟨S, P, O⟩.
type Pattern struct{ S, P, O Term }

// Spec is one declarative rule: body patterns, head patterns, and an
// optional pair of variables required to bind to distinct values
// (PRP-FP/PRP-IFP's y1 ≠ y2 side conditions).
type Spec struct {
	Name     string
	Body     []Pattern
	Head     []Pattern
	Distinct [2]int // variable slots that must differ; {-1,-1} if unused
}

// NoDistinct marks a spec without a distinctness side condition.
var NoDistinct = [2]int{-1, -1}

// Specs returns the declarative rules of the fragment (transitivity
// expressed as explicit two-hop rules, since generic engines have no
// closure stage; Rules runs those θ rows through the reasoner's θ step).
func Specs(f Fragment, v *Vocab) []Spec {
	p := func(pidx int) uint64 { return dictionary.PropID(pidx) }
	typ, sco, spo := p(v.Type), p(v.SubClassOf), p(v.SubPropertyOf)
	dom, rng := p(v.Domain), p(v.Range)
	same, eqc, eqp, inv := p(v.SameAs), p(v.EquivClass), p(v.EquivProp), p(v.InverseOf)
	member := p(v.Member)

	rule := func(name string, body, head []Pattern) Spec {
		return Spec{Name: name, Body: body, Head: head, Distinct: NoDistinct}
	}

	core := []Spec{
		rule("CAX-SCO",
			[]Pattern{{V(0), C(sco), V(1)}, {V(2), C(typ), V(0)}},
			[]Pattern{{V(2), C(typ), V(1)}}),
		rule("PRP-DOM",
			[]Pattern{{V(0), C(dom), V(1)}, {V(2), V(0), V(3)}},
			[]Pattern{{V(2), C(typ), V(1)}}),
		rule("PRP-RNG",
			[]Pattern{{V(0), C(rng), V(1)}, {V(2), V(0), V(3)}},
			[]Pattern{{V(3), C(typ), V(1)}}),
		rule("PRP-SPO1",
			[]Pattern{{V(0), C(spo), V(1)}, {V(2), V(0), V(3)}},
			[]Pattern{{V(2), V(1), V(3)}}),
		rule("SCM-DOM2",
			[]Pattern{{V(0), C(dom), V(1)}, {V(2), C(spo), V(0)}},
			[]Pattern{{V(2), C(dom), V(1)}}),
		rule("SCM-RNG2",
			[]Pattern{{V(0), C(rng), V(1)}, {V(2), C(spo), V(0)}},
			[]Pattern{{V(2), C(rng), V(1)}}),
		rule("SCM-SCO",
			[]Pattern{{V(0), C(sco), V(1)}, {V(1), C(sco), V(2)}},
			[]Pattern{{V(0), C(sco), V(2)}}),
		rule("SCM-SPO",
			[]Pattern{{V(0), C(spo), V(1)}, {V(1), C(spo), V(2)}},
			[]Pattern{{V(0), C(spo), V(2)}}),
	}

	rdfsExtra := []Spec{
		rule("SCM-DOM1",
			[]Pattern{{V(0), C(dom), V(1)}, {V(1), C(sco), V(2)}},
			[]Pattern{{V(0), C(dom), V(2)}}),
		rule("SCM-RNG1",
			[]Pattern{{V(0), C(rng), V(1)}, {V(1), C(sco), V(2)}},
			[]Pattern{{V(0), C(rng), V(2)}}),
	}

	fullExtra := []Spec{
		rule("RDFS4",
			[]Pattern{{V(0), V(1), V(2)}},
			[]Pattern{{V(0), C(typ), C(v.Resource)}, {V(2), C(typ), C(v.Resource)}}),
		rule("RDFS6",
			[]Pattern{{V(0), C(typ), C(v.Property)}},
			[]Pattern{{V(0), C(spo), V(0)}}),
		rule("RDFS8",
			[]Pattern{{V(0), C(typ), C(v.Class)}},
			[]Pattern{{V(0), C(typ), C(v.Resource)}}),
		rule("RDFS10",
			[]Pattern{{V(0), C(typ), C(v.Class)}},
			[]Pattern{{V(0), C(sco), V(0)}}),
		rule("RDFS12",
			[]Pattern{{V(0), C(typ), C(v.ContainerMembership)}},
			[]Pattern{{V(0), C(spo), C(member)}}),
		rule("RDFS13",
			[]Pattern{{V(0), C(typ), C(v.Datatype)}},
			[]Pattern{{V(0), C(sco), C(v.Literal)}}),
	}

	plusExtra := []Spec{
		rule("CAX-EQC1",
			[]Pattern{{V(0), C(eqc), V(1)}, {V(2), C(typ), V(1)}},
			[]Pattern{{V(2), C(typ), V(0)}}),
		rule("CAX-EQC2",
			[]Pattern{{V(0), C(eqc), V(1)}, {V(2), C(typ), V(0)}},
			[]Pattern{{V(2), C(typ), V(1)}}),
		rule("EQ-SYM",
			[]Pattern{{V(0), C(same), V(1)}},
			[]Pattern{{V(1), C(same), V(0)}}),
		rule("EQ-TRANS",
			[]Pattern{{V(0), C(same), V(1)}, {V(1), C(same), V(2)}},
			[]Pattern{{V(0), C(same), V(2)}}),
		rule("EQ-REP-S",
			[]Pattern{{V(0), C(same), V(1)}, {V(1), V(2), V(3)}},
			[]Pattern{{V(0), V(2), V(3)}}),
		rule("EQ-REP-O",
			[]Pattern{{V(0), C(same), V(1)}, {V(2), V(3), V(1)}},
			[]Pattern{{V(2), V(3), V(0)}}),
		rule("EQ-REP-P",
			[]Pattern{{V(0), C(same), V(1)}, {V(2), V(1), V(3)}},
			[]Pattern{{V(2), V(0), V(3)}}),
		rule("PRP-EQP1",
			[]Pattern{{V(0), C(eqp), V(1)}, {V(2), V(1), V(3)}},
			[]Pattern{{V(2), V(0), V(3)}}),
		rule("PRP-EQP2",
			[]Pattern{{V(0), C(eqp), V(1)}, {V(2), V(0), V(3)}},
			[]Pattern{{V(2), V(1), V(3)}}),
		rule("PRP-INV1",
			[]Pattern{{V(0), C(inv), V(1)}, {V(2), V(0), V(3)}},
			[]Pattern{{V(3), V(1), V(2)}}),
		rule("PRP-INV2",
			[]Pattern{{V(0), C(inv), V(1)}, {V(2), V(1), V(3)}},
			[]Pattern{{V(3), V(0), V(2)}}),
		rule("PRP-SYMP",
			[]Pattern{{V(0), C(typ), C(v.SymmetricProp)}, {V(1), V(0), V(2)}},
			[]Pattern{{V(2), V(0), V(1)}}),
		rule("PRP-TRP",
			[]Pattern{{V(0), C(typ), C(v.TransitiveProp)}, {V(1), V(0), V(2)}, {V(2), V(0), V(3)}},
			[]Pattern{{V(1), V(0), V(3)}}),
		{Name: "PRP-FP",
			Body:     []Pattern{{V(0), C(typ), C(v.FunctionalProp)}, {V(1), V(0), V(2)}, {V(1), V(0), V(3)}},
			Head:     []Pattern{{V(2), C(same), V(3)}},
			Distinct: [2]int{2, 3}},
		{Name: "PRP-IFP",
			Body:     []Pattern{{V(0), C(typ), C(v.InverseFunctionalProp)}, {V(1), V(0), V(2)}, {V(3), V(0), V(2)}},
			Head:     []Pattern{{V(1), C(same), V(3)}},
			Distinct: [2]int{1, 3}},
		rule("SCM-EQC1",
			[]Pattern{{V(0), C(eqc), V(1)}},
			[]Pattern{{V(0), C(sco), V(1)}, {V(1), C(sco), V(0)}}),
		rule("SCM-EQC2",
			[]Pattern{{V(0), C(sco), V(1)}, {V(1), C(sco), V(0)}},
			[]Pattern{{V(0), C(eqc), V(1)}}),
		rule("SCM-EQP1",
			[]Pattern{{V(0), C(eqp), V(1)}},
			[]Pattern{{V(0), C(spo), V(1)}, {V(1), C(spo), V(0)}}),
		rule("SCM-EQP2",
			[]Pattern{{V(0), C(spo), V(1)}, {V(1), C(spo), V(0)}},
			[]Pattern{{V(0), C(eqp), V(1)}}),
	}

	plusFullExtra := []Spec{
		rule("SCM-CLS",
			[]Pattern{{V(0), C(typ), C(v.OWLClass)}},
			[]Pattern{
				{V(0), C(sco), V(0)},
				{V(0), C(eqc), V(0)},
				{V(0), C(sco), C(v.Thing)},
				{C(v.Nothing), C(sco), V(0)},
			}),
		rule("SCM-DP",
			[]Pattern{{V(0), C(typ), C(v.DatatypeProp)}},
			[]Pattern{{V(0), C(spo), V(0)}, {V(0), C(eqp), V(0)}}),
		rule("SCM-OP",
			[]Pattern{{V(0), C(typ), C(v.ObjectProp)}},
			[]Pattern{{V(0), C(spo), V(0)}, {V(0), C(eqp), V(0)}}),
	}

	var specs []Spec
	switch f {
	case RhoDF:
		specs = core
	case RDFSDefault:
		specs = append(append([]Spec{}, core...), rdfsExtra...)
	case RDFSFull:
		specs = append(append(append([]Spec{}, core...), rdfsExtra...), fullExtra...)
	case RDFSPlus:
		specs = append(append(append([]Spec{}, core...), rdfsExtra...), plusExtra...)
	case RDFSPlusFull:
		specs = append(append(append(append([]Spec{}, core...), rdfsExtra...), plusExtra...), plusFullExtra...)
	}
	return specs
}

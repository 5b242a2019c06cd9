// Package rules implements Inferray's rule machinery: the rule classes of
// §4.4 (α, β, γ, δ, same-as, θ, the three-antecedent functional-property
// rules, and the trivial single-antecedent rules), the concrete rules of
// Table 5 (table5.go), and the fragments ρdf, RDFS-default, RDFS-full,
// RDFS-Plus and RDFS-Plus-full, declared once as Specs (spec.go).
//
// Every rule reads the main store and the delta ("new") store of the
// current iteration and appends derivations to a private output store;
// the reasoner merges outputs per Figure 5. Rules are semi-naive: each
// derivation uses at least one antecedent from the delta store.
package rules

import (
	"inferray/internal/dictionary"
	"inferray/internal/rdf"
)

// Vocab holds the dictionary encoding of the vocabulary the rules refer
// to: property-table indexes for the schema properties, and resource IDs
// for the class/marker constants.
type Vocab struct {
	// Property-table indexes (dictionary.PropIndex of the property ID).
	Type, SubClassOf, SubPropertyOf, Domain, Range   int
	SameAs, EquivClass, EquivProp, InverseOf, Member int

	// Resource IDs.
	Resource, Class, Literal, Datatype, ContainerMembership uint64
	Property, FunctionalProp, InverseFunctionalProp         uint64
	SymmetricProp, TransitiveProp                           uint64
	OWLClass, DatatypeProp, ObjectProp, Thing, Nothing      uint64
}

// ResolveVocab resolves (registering if necessary) the vocabulary in d.
// Reasoners call it right after dictionary construction so the vocabulary
// occupies the first dense indexes.
func ResolveVocab(d *dictionary.Dictionary) *Vocab {
	pidx := func(term string) int {
		return dictionary.PropIndex(d.EncodeProperty(term))
	}
	res := func(term string) uint64 { return d.EncodeResource(term) }
	return &Vocab{
		Type:          pidx(rdf.RDFType),
		SubClassOf:    pidx(rdf.RDFSSubClassOf),
		SubPropertyOf: pidx(rdf.RDFSSubPropertyOf),
		Domain:        pidx(rdf.RDFSDomain),
		Range:         pidx(rdf.RDFSRange),
		SameAs:        pidx(rdf.OWLSameAs),
		EquivClass:    pidx(rdf.OWLEquivalentClass),
		EquivProp:     pidx(rdf.OWLEquivalentProperty),
		InverseOf:     pidx(rdf.OWLInverseOf),
		Member:        pidx(rdf.RDFSMember),

		Resource:              res(rdf.RDFSResource),
		Class:                 res(rdf.RDFSClass),
		Literal:               res(rdf.RDFSLiteral),
		Datatype:              res(rdf.RDFSDatatype),
		ContainerMembership:   res(rdf.RDFSContainerMembershipProperty),
		Property:              res(rdf.RDFProperty),
		FunctionalProp:        res(rdf.OWLFunctionalProperty),
		InverseFunctionalProp: res(rdf.OWLInverseFunctionalProperty),
		SymmetricProp:         res(rdf.OWLSymmetricProperty),
		TransitiveProp:        res(rdf.OWLTransitiveProperty),
		OWLClass:              res(rdf.OWLClass),
		DatatypeProp:          res(rdf.OWLDatatypeProperty),
		ObjectProp:            res(rdf.OWLObjectProperty),
		Thing:                 res(rdf.OWLThing),
		Nothing:               res(rdf.OWLNothing),
	}
}

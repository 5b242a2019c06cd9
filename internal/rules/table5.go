package rules

import (
	"math/bits"

	"inferray/internal/dictionary"
	"inferray/internal/store"
)

// This file implements the rules of Table 5: one constructor per
// execution class of §4.4, and table5, the one table saying which
// implementation executes each declarative spec of spec.go. Row numbers
// in comments refer to the table's rows.

// row is one implementation in table5.
type row struct {
	// apply runs the rule. nil marks a θ-class row: the reasoner's θ step
	// (closeTheta) keeps its table closed after every merge, so it
	// yields no rule.
	apply func(*Context)
	// fuses lists the specs the row covers in one application; nil means
	// the spec of the row's own name.
	fuses []string
}

// table5 maps every rule name to its implementation. A fragment's Specs
// decide which rows it runs (Rules).
var table5 = map[string]row{
	"CAX-SCO":  {apply: alpha(tSubClassOf, true, tType, false, tType, true, virtualHead)},       // #3
	"CAX-EQC1": {apply: alpha(tEquivClass, false, tType, false, tType, true, virtualHead)},      // #1
	"CAX-EQC2": {apply: alpha(tEquivClass, true, tType, false, tType, true, virtualHead)},       // #2
	"SCM-DOM1": {apply: alpha(tDomain, false, tSubClassOf, true, tDomain, false, expandUp)},     // #20
	"SCM-DOM2": {apply: alpha(tDomain, true, tSubPropertyOf, false, tDomain, true, expandDown)}, // #21
	"SCM-RNG1": {apply: alpha(tRange, false, tSubClassOf, true, tRange, false, expandUp)},       // #26
	"SCM-RNG2": {apply: alpha(tRange, true, tSubPropertyOf, false, tRange, true, expandDown)},   // #27
	"SCM-EQC2": {apply: beta(tSubClassOf, tEquivClass)},                                         // #23
	"SCM-EQP2": {apply: beta(tSubPropertyOf, tEquivProp)},                                       // #25
	"PRP-DOM":  {apply: gamma(tDomain, true)},                                                   // #9
	"PRP-RNG":  {apply: gamma(tRange, false)},                                                   // #16
	"PRP-SPO1": {apply: prpSPO1(deltaCopy(tSubPropertyOf, true, false))},                        // #17
	"PRP-SYMP": {apply: prpSYMP},                                                                // #18
	"PRP-EQP1": {apply: deltaCopy(tEquivProp, false, false)},                                    // #10
	"PRP-EQP2": {apply: deltaCopy(tEquivProp, true, false)},                                     // #11
	"PRP-INV1": {apply: deltaCopy(tInverseOf, true, true)},                                      // #14
	"PRP-INV2": {apply: deltaCopy(tInverseOf, false, true)},                                     // #15
	"EQ-REP":   {apply: eqRep, fuses: []string{"EQ-REP-S", "EQ-REP-O", "EQ-REP-P"}},             // #4–#6
	"PRP-FP":   {apply: funcProp(false)},                                                        // #12
	"PRP-IFP":  {apply: funcProp(true)},                                                         // #13
	"SCM-EQC1": {apply: mutual(tEquivClass, tSubClassOf)},                                       // #22
	"SCM-EQP1": {apply: mutual(tEquivProp, tSubPropertyOf)},                                     // #24
	"SCM-CLS":  {apply: marked(func(v *Vocab) uint64 { return v.OWLClass }, scmCLS)},            // #30
	"SCM-DP":   {apply: marked(func(v *Vocab) uint64 { return v.DatatypeProp }, reflexiveProp)}, // #31
	"SCM-OP":   {apply: marked(func(v *Vocab) uint64 { return v.ObjectProp }, reflexiveProp)},   // #32
	"RDFS4":    {apply: rdfs4},                                                                  // #33
	"RDFS6":    {apply: marked(func(v *Vocab) uint64 { return v.Property }, rdfs6)},             // #37
	"RDFS8":    {apply: marked(func(v *Vocab) uint64 { return v.Class }, rdfs8)},                // #34
	"RDFS10":   {apply: marked(func(v *Vocab) uint64 { return v.Class }, rdfs10)},               // #38
	"RDFS12":   {apply: marked(func(v *Vocab) uint64 { return v.ContainerMembership }, rdfs12)}, // #35
	"RDFS13":   {apply: marked(func(v *Vocab) uint64 { return v.Datatype }, rdfs13)},            // #36
	"SCM-SCO":  {},                                                                              // #28, θ
	"SCM-SPO":  {},                                                                              // #29, θ
	"EQ-SYM":   {},                                                                              // #7, θ
	"EQ-TRANS": {},                                                                              // #8, θ
	"PRP-TRP":  {},                                                                              // #19, θ
}

// table selects one of the vocabulary's property tables from the Vocab
// a rule runs with.
type table func(*Vocab) int

var (
	tType          table = func(v *Vocab) int { return v.Type }
	tSubClassOf    table = func(v *Vocab) int { return v.SubClassOf }
	tSubPropertyOf table = func(v *Vocab) int { return v.SubPropertyOf }
	tDomain        table = func(v *Vocab) int { return v.Domain }
	tRange         table = func(v *Vocab) int { return v.Range }
	tEquivClass    table = func(v *Vocab) int { return v.EquivClass }
	tEquivProp     table = func(v *Vocab) int { return v.EquivProp }
	tInverseOf     table = func(v *Vocab) int { return v.InverseOf }
)

// ---------------------------------------------------------------- α rules

// encodedForm is what an α rule does under the hierarchy encoding.
type encodedForm int

const (
	// virtualHead: nothing. The CAX rules' type heads are virtual: the
	// view expands ⟨x type c1⟩ to every visible super of c1, and SCM-EQC1
	// stores every equivalentClass pair as mutual subClassOf edges, so
	// equivalent classes share a cyclic strong component the expansion
	// covers in both directions.
	virtualHead encodedForm = iota
	// expandUp and expandDown: encodedSchemaExpand along subClassOf (the
	// SCM-DOM1/RNG1 shape) or subPropertyOf (SCM-DOM2/RNG2).
	expandUp
	expandDown
)

// alpha builds an α rule: a semi-naive sort-merge join of table a with
// table b, each keyed on its subject or its object (aSubj, bSubj),
// appending ⟨a's payload, b's payload⟩ — or the reverse when swap — to
// table head. Under the hierarchy encoding it runs enc instead.
func alpha(a table, aSubj bool, b table, bSubj bool, head table, swap bool, enc encodedForm) func(*Context) {
	return func(c *Context) {
		if c.Hier != nil {
			if enc != virtualHead {
				encodedSchemaExpand(c, head(c.V), enc == expandUp)
			}
			return
		}
		out := c.Out.Ensure(head(c.V))
		c.alphaJoin(a(c.V), aSubj, b(c.V), bSubj, func(x, y uint64) {
			if swap {
				x, y = y, x
			}
			out.Append(x, y)
		})
	}
}

// ---------------------------------------------------------------- β rules

// beta builds the β rule ⟨a P b⟩ ∧ ⟨b P a⟩ ⇒ ⟨a H b⟩ of SCM-EQC2 and
// SCM-EQP2. One sequential scan of the delta table with a binary-search
// probe of the (already merged) main table finds every pair with at
// least one new antecedent.
func beta(prop, head table) func(*Context) {
	return func(c *Context) {
		p := prop(c.V)
		if c.Hier != nil {
			// Mutual visible subsumption is exactly co-membership in a
			// cyclic strong component, so the head pairs are the ordered
			// pairs (reflexive included — the body matches with both
			// variables equal on a cyclic node) of each such component.
			rel := c.Hier.Classes
			if p == c.V.SubPropertyOf {
				rel = c.Hier.Props
			}
			if !c.hierChanged(p) {
				return
			}
			out := c.Out.Ensure(head(c.V))
			rel.ForEachCyclicSCC(func(members []uint64) {
				for _, a := range members {
					for _, b := range members {
						out.Append(a, b)
					}
				}
			})
			return
		}
		dt := c.deltaTable(p)
		mt := c.mainTable(p)
		if dt == nil || mt == nil {
			return
		}
		out := c.Out.Ensure(head(c.V))
		pairs := dt.Pairs()
		for i := 0; i < len(pairs); i += 2 {
			s, o := pairs[i], pairs[i+1]
			if mt.Contains(o, s) {
				// The body matches under both variable assignments
				// (c1,c2) and (c2,c1), so both head orientations hold.
				out.Append(s, o)
				out.Append(o, s)
			}
		}
	}
}

// ---------------------------------------------------------------- γ rules

// gamma builds the γ rule of PRP-DOM and PRP-RNG: a schema table holds
// ⟨p, c⟩ pairs where p names a property table; every instance pair of
// that table yields a type triple. emitSubject selects whether the
// subject (domain) or object (range) of the instance triple is typed.
func gamma(schemaProp table, emitSubject bool) func(*Context) {
	return func(c *Context) {
		// First list the ⟨class, instance table⟩ typings, then emit each
		// pair they yield once (typings.go).
		var work []typing
		for _, pass := range c.passes() {
			schema := pass.a.Table(schemaProp(c.V))
			if schema == nil || schema.Empty() {
				continue
			}
			// Under the hierarchy encoding, only the minimal classes of
			// p's schema run are materialized: the interval expansion of a
			// minimal class covers every super, so typing instances with
			// non-minimal classes would store triples the view already
			// answers.
			var min *minimalRun
			if c.Hier != nil {
				min = &minimalRun{schema: c.mainTable(schemaProp(c.V)), rel: c.Hier.Classes}
			}
			sp := schema.Pairs()
			for i := 0; i < len(sp); {
				p, lo := sp[i], i
				for i < len(sp) && sp[i] == p {
					i += 2
				}
				pidx, ok := propIndexOf(p)
				if !ok {
					continue
				}
				inst := pass.b.Table(pidx)
				if inst == nil || inst.Empty() {
					continue
				}
				if min != nil {
					min.seek(p)
				}
				for k := lo; k < i; k += 2 {
					if cls := sp[k+1]; min == nil || min.minimal(cls) {
						work = append(work, typing{cls, pidx, inst.Pairs()})
					}
				}
			}
		}
		side := 1
		if emitSubject {
			side = 0
		}
		emitTypings(c, work, side, c.Out.Ensure(c.V.Type))
	}
}

// prpSPO1 builds PRP-SPO1 (p1 subPropertyOf p2 ∧ x p1 y ⇒ x p2 y) from
// its stored form, the δ copy of every p1 table into p2, and the
// interval form below.
func prpSPO1(stored func(*Context)) func(*Context) {
	return func(c *Context) {
		if c.Hier == nil {
			stored(c)
			return
		}
		// Interval form: each data table is copied through its property's
		// visible supers (the virtual subPropertyOf closure). Normally
		// only the delta tables are swept; when the property hierarchy
		// itself changed, the whole main store is re-swept against the
		// fresh intervals. The self-copy (a cyclic property's own block)
		// is skipped like the stored form skips p1 == p2.
		src := c.Delta
		if c.hierChanged(c.V.SubPropertyOf) {
			src = c.Main
		}
		src.ForEachTable(func(pidx int, t *store.Table) bool {
			p := dictionary.PropID(pidx)
			c.Hier.Props.Supers(p, func(q uint64) bool {
				if q == p {
					return true
				}
				if qi, ok := propIndexOf(q); ok {
					c.Out.Ensure(qi).AppendPairs(t.RawPairs())
				}
				return true
			})
			return true
		})
	}
}

// prpSYMP is PRP-SYMP: p type SymmetricProperty ∧ x p y ⇒ y p x.
func prpSYMP(c *Context) {
	for _, pass := range c.passes() {
		for _, pidx := range markedProperties(pass.a.Table(c.V.Type), c.V.SymmetricProp) {
			src := pass.b.Table(pidx)
			if src == nil || src.Empty() {
				continue
			}
			out := c.Out.Ensure(pidx)
			sp := src.RawPairs()
			for j := 0; j < len(sp); j += 2 {
				out.Append(sp[j+1], sp[j])
			}
		}
	}
}

// ---------------------------------------------------------------- δ rules

// deltaCopy builds a δ rule: for every ⟨p1, p2⟩ in a schema table, the
// property table of p1 (srcFirst) or p2 is copied, reversed when reverse,
// into the table of the other.
func deltaCopy(schemaProp table, srcFirst, reverse bool) func(*Context) {
	return func(c *Context) {
		for _, pass := range c.passes() {
			schema := pass.a.Table(schemaProp(c.V))
			if schema == nil || schema.Empty() {
				continue
			}
			sp := schema.Pairs()
			for i := 0; i < len(sp); i += 2 {
				p1, p2 := sp[i], sp[i+1]
				srcID, dstID := p1, p2
				if !srcFirst {
					srcID, dstID = p2, p1
				}
				if srcID == dstID && !reverse {
					continue
				}
				si, ok1 := propIndexOf(srcID)
				di, ok2 := propIndexOf(dstID)
				if !ok1 || !ok2 {
					continue
				}
				src := pass.b.Table(si)
				if src == nil || src.Empty() {
					continue
				}
				out := c.Out.Ensure(di)
				if !reverse {
					out.AppendPairs(src.RawPairs())
					continue
				}
				raw := src.RawPairs()
				for j := 0; j < len(raw); j += 2 {
					out.Append(raw[j+1], raw[j])
				}
			}
		}
	}
}

// ----------------------------------------------------------- same-as rules

// eqRep implements the three replication rules (#4 EQ-REP-O, #5
// EQ-REP-P, #6 EQ-REP-S) as sequential scans, like every other rule
// class. Per pass, the objects b of the A side's ⟨a, b⟩ pairs with a ≠ b
// are the members; when a and b are both properties, b's table is copied
// under a (EQ-REP-P). One pass over each B-side table's ⟨s,o⟩ pairs then
// replicates a pair whose subject is a member as ⟨a, o⟩ (EQ-REP-S) and
// one whose object is a member as ⟨s, a⟩ (EQ-REP-O), for every partner a
// of that member, read off the sameAs table's own ⟨o,s⟩ list. That list
// is the only one the rule sorts by object. The reasoner's θ step keeps
// the table symmetric (#7 EQ-SYM), so b's facts reach a and a's reach b;
// the rule itself emits the per-pair multiset whether the A side is
// symmetric or not.
func eqRep(c *Context) {
	for _, pass := range c.passes() {
		same := pass.a.Table(c.V.SameAs)
		if same == nil || same.Empty() {
			continue
		}
		// ⟨b, a⟩ sorted on b: a member's run lists its partners.
		partners := same.OS()
		members := false
		for i := 0; i < len(partners); i += 2 {
			b, a := partners[i], partners[i+1]
			if a == b {
				continue
			}
			members = true
			// EQ-REP-P: replicate b's property table under a.
			if ai, aok := propIndexOf(a); aok {
				if bi, bok := propIndexOf(b); bok {
					if src := pass.b.Table(bi); src != nil && !src.Empty() {
						c.Out.Ensure(ai).AppendPairs(src.RawPairs())
					}
				}
			}
		}
		if members {
			// EQ-REP-S and EQ-REP-O: one scan of every B-side table.
			var in *store.TermSet
			if memberSet(pass.b.Size(), same.Size()) {
				in = c.Terms()
				in.AddKeys(partners)
			}
			pass.b.ForEachTable(func(pidx int, t *store.Table) bool {
				replicateMembers(c.Out, pidx, t.Pairs(), partners, in)
				return true
			})
		}
	}
}

// memberSet reports whether a pass that scans n pairs against an m-pair
// sameAs table tests membership in the rule's term set rather than by
// binary search in the table's ⟨o,s⟩ list: filling and clearing the set
// costs O(m), the searches two of ⌈log₂(m+1)⌉ steps per pair, one even
// for m = 1 (EXPERIMENTS.md "One term set").
func memberSet(n, m int) bool { return 2*n*bits.Len(uint(m)) >= m }

// replicateMembers appends to table pidx of out the EQ-REP-S and EQ-REP-O
// pairs of one table's ⟨s,o⟩ list p: ⟨a, o⟩ for a member subject and
// ⟨s, a⟩ for a member object, for every partner a of the member.
// replicate finds a term's partners by binary search in partners; a key
// whose only partner is itself emits nothing. When in is not nil it holds
// partners' keys, so a term that is none is passed over without a search.
func replicateMembers(out *store.Store, pidx int, p, partners []uint64, in *store.TermSet) {
	for j := 0; j < len(p); j += 2 {
		s, o := p[j], p[j+1]
		if in == nil || in.Has(s) {
			replicate(out, pidx, partners, s, o, true)
		}
		if in == nil || in.Has(o) {
			replicate(out, pidx, partners, o, s, false)
		}
	}
}

// replicate appends to table pidx of out one pair per partner a ≠ x of
// member x: ⟨a, y⟩ when x is the subject, ⟨y, a⟩ when it is the object.
func replicate(out *store.Store, pidx int, partners []uint64, x, y uint64, subject bool) {
	var t *store.Table
	lo, hi := store.KeyRun(partners, x)
	for k := 2*lo + 1; k < 2*hi; k += 2 {
		a := partners[k]
		if a == x {
			continue
		}
		if t == nil {
			t = out.Ensure(pidx)
		}
		if subject {
			t.Append(a, y)
		} else {
			t.Append(y, a)
		}
	}
}

// ----------------------------------------------------- functional property

// funcProp builds PRP-FP (#12) or, when inverse, PRP-IFP (#13). Per
// pass, for every property the A side marks functional (inverse
// functional), each distinct subject (object) of the B side's table keys
// a run of Main's table, found by galloping on from the previous run;
// consecutive members of that run yield owl:sameAs links. A first pass
// and a newly marked property so read every run once, a delta pair of
// an already marked property only its own. Emitting only the
// consecutive pairs is sufficient because the sameAs θ-closure completes
// the equivalence class — this keeps the self-join linear, matching the
// paper's O(k·n) bound.
func funcProp(inverse bool) func(*Context) {
	return func(c *Context) {
		marker := c.V.FunctionalProp
		if inverse {
			marker = c.V.InverseFunctionalProp
		}
		for _, pass := range c.passes() {
			for _, pidx := range markedProperties(pass.a.Table(c.V.Type), marker) {
				keys, main := pass.b.Table(pidx), c.mainTable(pidx)
				if keys == nil || keys.Empty() || main == nil {
					continue
				}
				k, runs := view(keys, !inverse), view(main, !inverse)
				n, at := len(runs)/2, 0
				out := c.Out.Ensure(c.V.SameAs)
				for i := 0; i < len(k); i += 2 {
					if i > 0 && k[i] == k[i-2] {
						continue
					}
					// A normalized run holds distinct members.
					for at = store.GallopLowerBound(runs, n, at, k[i]); at+1 < n && runs[2*at+2] == k[i]; at++ {
						out.Append(runs[2*at+1], runs[2*at+3])
					}
				}
			}
		}
	}
}

// ------------------------------------------------------------ trivial rules

// mutual builds SCM-EQC1 and SCM-EQP1: a from b ⇒ a to b ∧ b to a.
func mutual(from, to table) func(*Context) {
	return func(c *Context) {
		dt := c.deltaTable(from(c.V))
		if dt == nil {
			return
		}
		out := c.Out.Ensure(to(c.V))
		p := dt.Pairs()
		for i := 0; i < len(p); i += 2 {
			out.Append(p[i], p[i+1])
			out.Append(p[i+1], p[i])
		}
	}
}

// marked builds the ⟨x type M⟩ ⇒ emissions pattern shared by SCM-CLS,
// SCM-DP/OP and RDFS 6/8/10/12/13.
func marked(marker func(*Vocab) uint64, emit func(c *Context, x uint64)) func(*Context) {
	return func(c *Context) {
		for _, x := range markerSubjects(c.deltaTable(c.V.Type), marker(c.V)) {
			emit(c, x)
		}
	}
}

// scmCLS: c type owl:Class ⇒ c subClassOf c, c equivalentClass c,
// c subClassOf owl:Thing, owl:Nothing subClassOf c.
func scmCLS(c *Context, x uint64) {
	c.Out.Ensure(c.V.SubClassOf).Append(x, x)
	c.Out.Ensure(c.V.EquivClass).Append(x, x)
	c.Out.Ensure(c.V.SubClassOf).Append(x, c.V.Thing)
	c.Out.Ensure(c.V.SubClassOf).Append(c.V.Nothing, x)
}

// reflexiveProp is SCM-DP's and SCM-OP's head: p type
// owl:{Datatype,Object}Property ⇒ p subPropertyOf p ∧ p equivalentProperty p.
func reflexiveProp(c *Context, x uint64) {
	c.Out.Ensure(c.V.SubPropertyOf).Append(x, x)
	c.Out.Ensure(c.V.EquivProp).Append(x, x)
}

// rdfs4: x p y ⇒ x type Resource ∧ y type Resource.
func rdfs4(c *Context) {
	out := c.Out.Ensure(c.V.Type)
	c.Delta.ForEachTable(func(pidx int, t *store.Table) bool {
		p := t.RawPairs()
		for i := 0; i < len(p); i += 2 {
			out.Append(p[i], c.V.Resource)
			out.Append(p[i+1], c.V.Resource)
		}
		return true
	})
}

// rdfs6: x type rdf:Property ⇒ x subPropertyOf x.
func rdfs6(c *Context, x uint64) { c.Out.Ensure(c.V.SubPropertyOf).Append(x, x) }

// rdfs8: x type rdfs:Class ⇒ x type rdfs:Resource.
func rdfs8(c *Context, x uint64) { c.Out.Ensure(c.V.Type).Append(x, c.V.Resource) }

// rdfs10: x type rdfs:Class ⇒ x subClassOf x.
func rdfs10(c *Context, x uint64) { c.Out.Ensure(c.V.SubClassOf).Append(x, x) }

// rdfs12: x type ContainerMembershipProperty ⇒ x subPropertyOf rdfs:member.
func rdfs12(c *Context, x uint64) {
	c.Out.Ensure(c.V.SubPropertyOf).Append(x, dictionary.PropID(c.V.Member))
}

// rdfs13: x type rdfs:Datatype ⇒ x subClassOf rdfs:Literal.
func rdfs13(c *Context, x uint64) { c.Out.Ensure(c.V.SubClassOf).Append(x, c.V.Literal) }

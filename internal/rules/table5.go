package rules

import (
	"inferray/internal/dictionary"
	"inferray/internal/store"
)

// This file implements the concrete rules of Table 5, grouped by class.
// Rule numbering comments refer to the table's row numbers.

// ---------------------------------------------------------------- α rules

// ruleCAXSCO (#3): c1 subClassOf c2 ∧ x type c1 ⇒ x type c2.
func ruleCAXSCO() Rule {
	return Rule{Name: "CAX-SCO", Apply: func(c *Context) {
		if c.Hier != nil {
			// Subsumption-derived types are virtual under the hierarchy
			// encoding: the view expands ⟨x type c1⟩ to every visible
			// super of c1, so materializing ⟨x type c2⟩ is exactly the
			// storage this rule exists to avoid.
			return
		}
		out := c.Out.Ensure(c.V.Type)
		c.alphaJoin(c.V.SubClassOf, true, c.V.Type, false, func(c2, x uint64) {
			out.Append(x, c2)
		})
	}}
}

// ruleCAXEQC1 (#1): c1 equivalentClass c2 ∧ x type c2 ⇒ x type c1.
func ruleCAXEQC1() Rule {
	return Rule{Name: "CAX-EQC1", Apply: func(c *Context) {
		if c.Hier != nil {
			// SCM-EQC1 materializes every equivalentClass pair as mutual
			// subClassOf edges, so equivalent classes share a cyclic
			// strong component and the type expansion covers both
			// directions virtually.
			return
		}
		out := c.Out.Ensure(c.V.Type)
		c.alphaJoin(c.V.EquivClass, false, c.V.Type, false, func(c1, x uint64) {
			out.Append(x, c1)
		})
	}}
}

// ruleCAXEQC2 (#2): c1 equivalentClass c2 ∧ x type c1 ⇒ x type c2.
func ruleCAXEQC2() Rule {
	return Rule{Name: "CAX-EQC2", Apply: func(c *Context) {
		if c.Hier != nil {
			return // see CAX-EQC1: covered by the cyclic-SCC expansion
		}
		out := c.Out.Ensure(c.V.Type)
		c.alphaJoin(c.V.EquivClass, true, c.V.Type, false, func(c2, x uint64) {
			out.Append(x, c2)
		})
	}}
}

// ruleSCMDOM1 (#20): p domain c1 ∧ c1 subClassOf c2 ⇒ p domain c2.
func ruleSCMDOM1() Rule {
	return Rule{Name: "SCM-DOM1", Apply: func(c *Context) {
		if c.Hier != nil {
			encodedSchemaExpand(c, c.V.Domain, c.Hier.Classes, c.hierChanged(c.V.SubClassOf), true)
			return
		}
		out := c.Out.Ensure(c.V.Domain)
		c.alphaJoin(c.V.Domain, false, c.V.SubClassOf, true, func(p, c2 uint64) {
			out.Append(p, c2)
		})
	}}
}

// ruleSCMDOM2 (#21): p2 domain c ∧ p1 subPropertyOf p2 ⇒ p1 domain c.
func ruleSCMDOM2() Rule {
	return Rule{Name: "SCM-DOM2", Apply: func(c *Context) {
		if c.Hier != nil {
			encodedSchemaExpand(c, c.V.Domain, c.Hier.Props, c.hierChanged(c.V.SubPropertyOf), false)
			return
		}
		out := c.Out.Ensure(c.V.Domain)
		c.alphaJoin(c.V.Domain, true, c.V.SubPropertyOf, false, func(cc, p1 uint64) {
			out.Append(p1, cc)
		})
	}}
}

// ruleSCMRNG1 (#26): p range c1 ∧ c1 subClassOf c2 ⇒ p range c2.
func ruleSCMRNG1() Rule {
	return Rule{Name: "SCM-RNG1", Apply: func(c *Context) {
		if c.Hier != nil {
			encodedSchemaExpand(c, c.V.Range, c.Hier.Classes, c.hierChanged(c.V.SubClassOf), true)
			return
		}
		out := c.Out.Ensure(c.V.Range)
		c.alphaJoin(c.V.Range, false, c.V.SubClassOf, true, func(p, c2 uint64) {
			out.Append(p, c2)
		})
	}}
}

// ruleSCMRNG2 (#27): p2 range c ∧ p1 subPropertyOf p2 ⇒ p1 range c.
func ruleSCMRNG2() Rule {
	return Rule{Name: "SCM-RNG2", Apply: func(c *Context) {
		if c.Hier != nil {
			encodedSchemaExpand(c, c.V.Range, c.Hier.Props, c.hierChanged(c.V.SubPropertyOf), false)
			return
		}
		out := c.Out.Ensure(c.V.Range)
		c.alphaJoin(c.V.Range, true, c.V.SubPropertyOf, false, func(cc, p1 uint64) {
			out.Append(p1, cc)
		})
	}}
}

// ---------------------------------------------------------------- β rules

// betaSymmetricPair implements the β pattern shared by SCM-EQC2 and
// SCM-EQP2: ⟨a P b⟩ ∧ ⟨b P a⟩ ⇒ ⟨a H b⟩. One sequential scan of the
// delta table with a binary-search probe of the (already merged) main
// table finds every pair with at least one new antecedent.
func betaSymmetricPair(name string, prop func(*Vocab) int, head func(*Vocab) int) Rule {
	return Rule{Name: name, Apply: func(c *Context) {
		if c.Hier != nil {
			// Mutual visible subsumption is exactly co-membership in a
			// cyclic strong component, so the head pairs are the ordered
			// pairs (reflexive included — the body matches with both
			// variables equal on a cyclic node) of each such component.
			edges, rel := prop(c.V), c.Hier.Classes
			if edges == c.V.SubPropertyOf {
				rel = c.Hier.Props
			}
			if !c.hierChanged(edges) {
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
		p := prop(c.V)
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
	}}
}

// ruleSCMEQC2 (#23): c1 subClassOf c2 ∧ c2 subClassOf c1 ⇒ c1 equivalentClass c2.
func ruleSCMEQC2() Rule {
	return betaSymmetricPair("SCM-EQC2",
		func(v *Vocab) int { return v.SubClassOf },
		func(v *Vocab) int { return v.EquivClass })
}

// ruleSCMEQP2 (#25): p1 subPropertyOf p2 ∧ p2 subPropertyOf p1 ⇒ p1 equivalentProperty p2.
func ruleSCMEQP2() Rule {
	return betaSymmetricPair("SCM-EQP2",
		func(v *Vocab) int { return v.SubPropertyOf },
		func(v *Vocab) int { return v.EquivProp })
}

// ---------------------------------------------------------------- γ rules

// gammaSchemaTable implements the γ pattern of PRP-DOM and PRP-RNG: a
// schema table holds ⟨p, c⟩ pairs where p names a property table; every
// instance pair of that table yields a type triple. emitSubject selects
// whether the subject (domain) or object (range) of the instance triple
// is typed.
func gammaSchemaTable(name string, schemaProp func(*Vocab) int, emitSubject bool) Rule {
	return Rule{Name: name, Apply: func(c *Context) {
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
	}}
}

// rulePRPDOM (#9): p domain c ∧ x p y ⇒ x type c.
func rulePRPDOM() Rule {
	return gammaSchemaTable("PRP-DOM", func(v *Vocab) int { return v.Domain }, true)
}

// rulePRPRNG (#16): p range c ∧ x p y ⇒ y type c.
func rulePRPRNG() Rule {
	return gammaSchemaTable("PRP-RNG", func(v *Vocab) int { return v.Range }, false)
}

// rulePRPSPO1 (#17): p1 subPropertyOf p2 ∧ x p1 y ⇒ x p2 y. The whole
// p1 table is copied into the p2 output table (γ with a δ-style bulk
// copy per schema pair).
func rulePRPSPO1() Rule {
	return Rule{Name: "PRP-SPO1", Apply: func(c *Context) {
		if c.Hier != nil {
			// Interval form: each data table is copied through its
			// property's visible supers (the virtual subPropertyOf
			// closure). Normally only the delta tables are swept; when
			// the property hierarchy itself changed, the whole main
			// store is re-swept against the fresh intervals. The
			// self-copy (a cyclic property's own block) is skipped like
			// the stored form skips p1 == p2.
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
			return
		}
		for _, pass := range c.passes() {
			schema := pass.a.Table(c.V.SubPropertyOf)
			if schema == nil || schema.Empty() {
				continue
			}
			sp := schema.Pairs()
			for i := 0; i < len(sp); i += 2 {
				p1, p2 := sp[i], sp[i+1]
				if p1 == p2 {
					continue
				}
				i1, ok1 := propIndexOf(p1)
				i2, ok2 := propIndexOf(p2)
				if !ok1 || !ok2 {
					continue
				}
				src := pass.b.Table(i1)
				if src == nil || src.Empty() {
					continue
				}
				c.Out.Ensure(i2).AppendPairs(src.RawPairs())
			}
		}
	}}
}

// rulePRPSYMP (#18): p type SymmetricProperty ∧ x p y ⇒ y p x.
func rulePRPSYMP() Rule {
	return Rule{Name: "PRP-SYMP", Apply: func(c *Context) {
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
	}}
}

// ---------------------------------------------------------------- δ rules

// deltaCopy implements the δ pattern: for every ⟨p1, p2⟩ in a schema
// table, the property table selected by src is copied (optionally
// reversed) into the table selected by dst.
func deltaCopy(name string, schemaProp func(*Vocab) int, srcFirst, reverse bool) Rule {
	return Rule{Name: name, Apply: func(c *Context) {
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
	}}
}

// rulePRPEQP1 (#10): p1 equivalentProperty p2 ∧ x p2 y ⇒ x p1 y.
func rulePRPEQP1() Rule {
	return deltaCopy("PRP-EQP1", func(v *Vocab) int { return v.EquivProp }, false, false)
}

// rulePRPEQP2 (#11): p1 equivalentProperty p2 ∧ x p1 y ⇒ x p2 y.
func rulePRPEQP2() Rule {
	return deltaCopy("PRP-EQP2", func(v *Vocab) int { return v.EquivProp }, true, false)
}

// rulePRPINV1 (#14): p1 inverseOf p2 ∧ x p1 y ⇒ y p2 x.
func rulePRPINV1() Rule {
	return deltaCopy("PRP-INV1", func(v *Vocab) int { return v.InverseOf }, true, true)
}

// rulePRPINV2 (#15): p1 inverseOf p2 ∧ x p2 y ⇒ y p1 x.
func rulePRPINV2() Rule {
	return deltaCopy("PRP-INV2", func(v *Vocab) int { return v.InverseOf }, false, true)
}

// ----------------------------------------------------------- same-as rules

// ruleSameAs implements the three replication rules (#4 EQ-REP-O, #5
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
func ruleSameAs() Rule {
	return Rule{Name: "EQ-REP", Apply: func(c *Context) {
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
			if !members {
				continue
			}
			// EQ-REP-S and EQ-REP-O: one scan of every B-side table.
			bits := memberBits(partners, c.TermBase, c.Terms, pass.b.Size())
			pass.b.ForEachTable(func(pidx int, t *store.Table) bool {
				replicateMembers(c.Out, pidx, t.Pairs(), partners, bits, c.TermBase)
				return true
			})
		}
	}}
}

// memberShare sets when EQ-REP tests membership in a bitmap over the
// dictionary's IDs rather than by binary search in the sameAs table's
// ⟨o,s⟩ list: once the pairs a pass scans reach 1/memberShare of the
// dictionary's terms. The bitmap costs a bit per term, allocated and
// cleared per pass, so at most 32 bytes per scanned pair; a search costs
// O(log k) in a k-pair sameAs table per test, two tests per pair. Over
// 300 k terms BenchmarkSameAsMembership has the bitmap faster from 1/256
// on with a 4-pair and a 10 k-pair sameAs table alike, and the search
// as fast or faster at 1/1024 with both (EXPERIMENTS.md "EQ-REP as one
// scan").
const memberShare = 256

// memberBits marks the members of partners (an ⟨o,s⟩-sorted sameAs
// list) in a bitmap over the dictionary's IDs, bit b-base for member b,
// when the n pairs to be tested reach 1/memberShare of its terms. Below
// that, or when terms is 0 (unknown), it returns nil and each test is a
// binary search in partners: an insert round tests a handful of pairs
// against the whole sameAs table, and a bitmap would cost it bytes in
// proportion to the dictionary.
func memberBits(partners []uint64, base uint64, terms, n int) []uint64 {
	if terms == 0 || n*memberShare < terms {
		return nil
	}
	bits := make([]uint64, (terms+63)/64)
	for i := 0; i < len(partners); i += 2 {
		if b := partners[i]; b != partners[i+1] {
			x := b - base
			bits[x>>6] |= 1 << (x & 63)
		}
	}
	return bits
}

// replicateMembers appends to table pidx of out the EQ-REP-S and EQ-REP-O
// pairs of one table's ⟨s,o⟩ list p: ⟨a, o⟩ for a member subject and
// ⟨s, a⟩ for a member object, for every partner a of the member. The
// members are the bits set in bits or, when it is nil, the keys of
// partners.
func replicateMembers(out *store.Store, pidx int, p, partners, bits []uint64, base uint64) {
	for j := 0; j < len(p); j += 2 {
		s, o := p[j], p[j+1]
		var sHit, oHit bool
		if bits != nil {
			x, y := s-base, o-base
			sHit, oHit = bits[x>>6]>>(x&63)&1 != 0, bits[y>>6]>>(y&63)&1 != 0
		} else {
			lo, hi := store.KeyRun(partners, s)
			sHit = lo < hi
			lo, hi = store.KeyRun(partners, o)
			oHit = lo < hi
		}
		if sHit {
			replicate(out, pidx, partners, s, o, true)
		}
		if oHit {
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

// EQ-SYM and EQ-TRANS (rows #7 and #8) are θ-class: the reasoner's θ
// step closes owl:sameAs as an undirected graph.

// ----------------------------------------------------- functional property

// funcPropRule implements PRP-FP (#12) and PRP-IFP (#13). For every
// property marked functional (inverse functional), the sorted property
// table is scanned once; within each subject (object) run, consecutive
// distinct objects (subjects) yield owl:sameAs links. Emitting only the
// consecutive pairs is sufficient because the sameAs θ-closure completes
// the equivalence class — this keeps the self-join linear, matching the
// paper's O(k·n) bound.
func funcPropRule(name string, inverse bool) Rule {
	return Rule{Name: name, Apply: func(c *Context) {
		marker := c.V.FunctionalProp
		if inverse {
			marker = c.V.InverseFunctionalProp
		}
		out := c.Out.Ensure(c.V.SameAs)

		process := func(t *store.Table) {
			var flat []uint64
			if inverse {
				flat = t.OS()
			} else {
				flat = t.Pairs()
			}
			for i := 2; i < len(flat); i += 2 {
				if flat[i] == flat[i-2] && flat[i+1] != flat[i-1] {
					out.Append(flat[i-1], flat[i+1])
				}
			}
		}

		if c.FirstPass() {
			for _, pidx := range markedProperties(c.mainTable(c.V.Type), marker) {
				if t := c.mainTable(pidx); t != nil {
					process(t)
				}
			}
			return
		}
		// Newly marked properties: full main table scan.
		seen := map[int]bool{}
		for _, pidx := range markedProperties(c.deltaTable(c.V.Type), marker) {
			seen[pidx] = true
			if t := c.mainTable(pidx); t != nil {
				process(t)
			}
		}
		// Already-marked properties whose table changed: rescan. The run
		// containing a new pair may straddle old pairs, so the whole main
		// table is scanned (it is sorted; duplicates wash out in merge).
		for _, pidx := range markedProperties(c.mainTable(c.V.Type), marker) {
			if seen[pidx] {
				continue
			}
			if dt := c.deltaTable(pidx); dt == nil {
				continue
			}
			if t := c.mainTable(pidx); t != nil {
				process(t)
			}
		}
	}}
}

func rulePRPFP() Rule  { return funcPropRule("PRP-FP", false) }
func rulePRPIFP() Rule { return funcPropRule("PRP-IFP", true) }

// ------------------------------------------------------------ trivial rules

// ruleSCMEQC1 (#22): c1 equivalentClass c2 ⇒ c1 subClassOf c2 ∧ c2 subClassOf c1.
func ruleSCMEQC1() Rule {
	return Rule{Name: "SCM-EQC1", Apply: func(c *Context) {
		dt := c.deltaTable(c.V.EquivClass)
		if dt == nil {
			return
		}
		out := c.Out.Ensure(c.V.SubClassOf)
		p := dt.Pairs()
		for i := 0; i < len(p); i += 2 {
			out.Append(p[i], p[i+1])
			out.Append(p[i+1], p[i])
		}
	}}
}

// ruleSCMEQP1 (#24): p1 equivalentProperty p2 ⇒ p1 subPropertyOf p2 ∧ p2 subPropertyOf p1.
func ruleSCMEQP1() Rule {
	return Rule{Name: "SCM-EQP1", Apply: func(c *Context) {
		dt := c.deltaTable(c.V.EquivProp)
		if dt == nil {
			return
		}
		out := c.Out.Ensure(c.V.SubPropertyOf)
		p := dt.Pairs()
		for i := 0; i < len(p); i += 2 {
			out.Append(p[i], p[i+1])
			out.Append(p[i+1], p[i])
		}
	}}
}

// markerTrivial builds the ⟨x type M⟩ ⇒ emissions pattern shared by
// SCM-CLS, SCM-DP/OP and RDFS 6/8/10/12/13.
func markerTrivial(name string, marker func(*Vocab) uint64, emit func(c *Context, x uint64)) Rule {
	return Rule{Name: name, Apply: func(c *Context) {
		dt := c.deltaTable(c.V.Type)
		for _, x := range markerSubjects(dt, marker(c.V)) {
			emit(c, x)
		}
	}}
}

// ruleSCMCLS (#30): c type owl:Class ⇒ c subClassOf c, c equivalentClass
// c, c subClassOf owl:Thing, owl:Nothing subClassOf c.
func ruleSCMCLS() Rule {
	return markerTrivial("SCM-CLS", func(v *Vocab) uint64 { return v.OWLClass },
		func(c *Context, x uint64) {
			c.Out.Ensure(c.V.SubClassOf).Append(x, x)
			c.Out.Ensure(c.V.EquivClass).Append(x, x)
			c.Out.Ensure(c.V.SubClassOf).Append(x, c.V.Thing)
			c.Out.Ensure(c.V.SubClassOf).Append(c.V.Nothing, x)
		})
}

// ruleSCMDP (#31) and ruleSCMOP (#32): p type owl:{Datatype,Object}Property
// ⇒ p subPropertyOf p ∧ p equivalentProperty p.
func ruleSCMDP() Rule {
	return markerTrivial("SCM-DP", func(v *Vocab) uint64 { return v.DatatypeProp },
		func(c *Context, x uint64) {
			c.Out.Ensure(c.V.SubPropertyOf).Append(x, x)
			c.Out.Ensure(c.V.EquivProp).Append(x, x)
		})
}

func ruleSCMOP() Rule {
	return markerTrivial("SCM-OP", func(v *Vocab) uint64 { return v.ObjectProp },
		func(c *Context, x uint64) {
			c.Out.Ensure(c.V.SubPropertyOf).Append(x, x)
			c.Out.Ensure(c.V.EquivProp).Append(x, x)
		})
}

// ruleRDFS4 (#33): x p y ⇒ x type Resource ∧ y type Resource.
func ruleRDFS4() Rule {
	return Rule{Name: "RDFS4", Apply: func(c *Context) {
		out := c.Out.Ensure(c.V.Type)
		c.Delta.ForEachTable(func(pidx int, t *store.Table) bool {
			p := t.RawPairs()
			for i := 0; i < len(p); i += 2 {
				out.Append(p[i], c.V.Resource)
				out.Append(p[i+1], c.V.Resource)
			}
			return true
		})
	}}
}

// ruleRDFS6 (#37): x type rdf:Property ⇒ x subPropertyOf x.
func ruleRDFS6() Rule {
	return markerTrivial("RDFS6", func(v *Vocab) uint64 { return v.Property },
		func(c *Context, x uint64) { c.Out.Ensure(c.V.SubPropertyOf).Append(x, x) })
}

// ruleRDFS8 (#34): x type rdfs:Class ⇒ x type rdfs:Resource.
func ruleRDFS8() Rule {
	return markerTrivial("RDFS8", func(v *Vocab) uint64 { return v.Class },
		func(c *Context, x uint64) { c.Out.Ensure(c.V.Type).Append(x, c.V.Resource) })
}

// ruleRDFS10 (#38): x type rdfs:Class ⇒ x subClassOf x.
func ruleRDFS10() Rule {
	return markerTrivial("RDFS10", func(v *Vocab) uint64 { return v.Class },
		func(c *Context, x uint64) { c.Out.Ensure(c.V.SubClassOf).Append(x, x) })
}

// ruleRDFS12 (#35): x type ContainerMembershipProperty ⇒ x subPropertyOf rdfs:member.
func ruleRDFS12() Rule {
	return markerTrivial("RDFS12", func(v *Vocab) uint64 { return v.ContainerMembership },
		func(c *Context, x uint64) {
			c.Out.Ensure(c.V.SubPropertyOf).Append(x, dictionary.PropID(c.V.Member))
		})
}

// ruleRDFS13 (#36): x type rdfs:Datatype ⇒ x subClassOf rdfs:Literal.
func ruleRDFS13() Rule {
	return markerTrivial("RDFS13", func(v *Vocab) uint64 { return v.Datatype },
		func(c *Context, x uint64) { c.Out.Ensure(c.V.SubClassOf).Append(x, c.V.Literal) })
}

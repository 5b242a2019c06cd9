package reasoner

import (
	"fmt"
	"slices"
	"time"

	"inferray/internal/rdf"
	"inferray/internal/rules"
	"inferray/internal/store"
)

// RetractStats reports what one retraction did.
//
// The engine maintains the closure under deletion DRed-style
// (delete-and-rederive): overdelete everything the deleted triples could
// have contributed to — by firing the rules whose read footprint meets
// the deleted set forward against the still-intact closure — then rederive
// the overdeleted triples that survive on other support, through the
// same incremental machinery insertions use. See DESIGN.md §11.
type RetractStats struct {
	Requested   int // triples in the delete batch
	Retracted   int // batch triples that were actually asserted (the rest are no-ops)
	Overdeleted int // stored triples in the overdeletion set
	Rederived   int // of those, the ones still stored afterwards: asserted in their own right, or rederived on other support

	// The rederivation pass: the stored pairs it started from (the
	// seed, rederiveSeed), the pairs its rules emitted, and the distinct
	// ones of them that could be new to the store and were merged.
	RederiveSeeds   int
	RederiveEmitted int
	RederiveKept    int

	TotalTriples int // visible closure size after the retraction
	Iterations   int // overdeletion + rederivation fixpoint iterations

	// EncodingDropped reports that this retraction touched a
	// subClassOf/subPropertyOf edge while the hierarchy encoding was
	// active: the virtual closure was expanded into the store and the
	// encoding permanently bypassed (same sticky fallback as the
	// meta-vocabulary guards).
	EncodingDropped bool

	OverdeleteTime time.Duration
	RederiveTime   time.Duration
	TotalTime      time.Duration
}

// Retract removes a batch of asserted triples and incrementally repairs
// the closure, leaving exactly the store a full rematerialization of the
// surviving asserted triples would produce. Batch entries that are not
// currently asserted — unknown terms, never loaded, or derived-only —
// are ignored (SPARQL DELETE DATA semantics: deleting an absent triple
// is not an error).
//
// No loaded batch may be pending: Materialize it first.
func (e *Engine) Retract(batch []rdf.Triple) (RetractStats, error) {
	start := time.Now()
	st := RetractStats{Requested: len(batch)}
	if e.staged != nil && e.staged.Size() > 0 {
		return st, fmt.Errorf("reasoner: staged triples pending; Materialize before Retract")
	}

	// Resolve the batch against the asserted marks. Only an asserted
	// triple seeds a retraction: a derived triple has no independent
	// existence to retract, and an unknown term cannot name anything.
	// Taking a triple into the batch is clearing its mark.
	slots := e.Main.NumSlots()
	del := store.New(slots)
	for _, t := range batch {
		if pidx, s, o, ok := e.resolve(t); ok && hasPairs(e.Main, pidx) && e.Main.Table(pidx).Unmark(s, o) {
			del.Add(pidx, s, o)
		}
	}
	del.Normalize()
	st.Retracted = del.Size()
	// An unmarked type pair the interval index still serves is compacted
	// away like any shadowed derivation — out of the store and out of
	// del: it stays visible, so nothing can depend on its removal.
	if hasPairs(del, e.V.Type) {
		e.compactTypeTable(del, false)
	}
	if del.Size() == 0 {
		st.TotalTriples = e.Size()
		st.TotalTime = time.Since(start)
		e.recordRetract(&st)
		return st, nil
	}

	// Phase 1: overdeletion. Retried at most once, when a schema-edge
	// delete forces the hierarchy encoding to expand first.
	overStart := time.Now()
	var over *store.Store
	for {
		var retry bool
		over, retry = e.overdelete(del, &st)
		if !retry {
			break
		}
	}
	st.OverdeleteTime = time.Since(overStart)
	st.Overdeleted = over.Size()

	// Phase 2: the overdeleted pairs that still carry a mark are asserted
	// in their own right. They never leave Main, and they are the delta
	// rederivation starts from; only the rest is physically deleted.
	rederiveStart := time.Now()
	delta, doomed := store.New(slots), store.New(slots)
	over.ForEachTable(func(pidx int, ot *store.Table) bool {
		mt, op := e.Main.Table(pidx), ot.Pairs()
		mt.Locate(op, func(i, at int) {
			into := doomed
			if mt.Marked(at) {
				into = delta
			}
			into.Add(pidx, op[2*i], op[2*i+1])
		})
		return true
	})
	delta.Normalize()
	doomed.Normalize()
	stored, typeVersion := e.Main.Size(), e.typeVersion()
	e.Main.Delete(doomed)
	if e.hier != nil && hasPairs(doomed, e.V.Type) {
		e.hier.CarryTypeStats(e.Main.Table(e.V.Type), typeVersion, doomed.Table(e.V.Type).Pairs(), false)
	}

	// Close again what the doomed pairs' removal can have opened in the θ
	// tables, folding the pairs the survivors still entail into delta.
	if fresh := e.closeTheta(doomed); fresh != nil {
		store.Union(delta, fresh)
	}

	// A surviving derivation whose antecedents were never deleted is
	// invisible to semi-naive evaluation (its antecedents are in no
	// delta). Every derivation of a doomed pair has a premise in the
	// doomed set's neighbourhood (rederiveSeed), so run the rules that
	// write into a deleted table and read the seed — the Δ⋈Main and
	// Main⋈Δ passes of an insert, the seed as Δ — and fold what they
	// restore into the running delta.
	seed := e.rederiveSeed(doomed)
	st.RederiveSeeds = seed.Size()
	readers := e.triggered(seed, (*rules.Rule).Reads)
	writers := slices.DeleteFunc(e.triggered(over, (*rules.Rule).Writes), func(i int) bool {
		_, reads := slices.BinarySearch(readers, i)
		return !reads
	})
	kept := e.possiblyNew(e.runRules(writers, seed), doomed, &st)
	if testHookRederive != nil {
		testHookRederive(e, over, doomed, kept)
	}
	merged := e.mergeRound(false, kept).delta
	store.Union(delta, merged)

	// Everything restored so far, θ tables closed again, flows through
	// the ordinary incremental fixpoint.
	if delta.Size() > 0 {
		var fs Stats
		e.fixpoint(delta, &fs)
		st.Iterations += fs.Iterations
	}

	st.Rederived = st.Overdeleted - (stored - e.Main.Size())
	st.RederiveTime = time.Since(rederiveStart)
	st.TotalTriples = e.Size()
	st.TotalTime = time.Since(start)
	e.recordRetract(&st)
	return st, nil
}

// testHookRederive, when set, is shown each retraction's overdeletion
// set, doomed pairs and the rederivation pass's kept pairs, on the
// engine in the state the pass ran against.
var testHookRederive func(e *Engine, over, doomed, kept *store.Store)

// rederiveSeed returns the doomed set's neighbourhood in Main: every
// stored pair whose subject or object is a term of doomed — a doomed
// pair's subject, or its object outside rdf:type. Main no longer holds
// doomed. A pass of the rules with this seed as the delta finds every
// derivation the whole store holds of a pair that can be new: in every
// Table 5 spec one endpoint of each head — its subject, or outside
// rdf:type its object — is the subject or object of a body pattern
// (rules' TestHeadEndpointInBody), so a derivation of a doomed pair, or
// of a type pair ⟨x, D⟩ a doomed ⟨x, C⟩ shadowed, has a premise that
// holds a term of doomed as its subject or object. Type objects are left
// out because a class is the object of its whole extent, and no head
// that needs one is a type pair.
//
// Per table, the subject side is a galloping search per term and the
// object side one lookup of the terms, flagged in the engine's term set,
// which builds no ⟨o,s⟩ list.
func (e *Engine) rederiveSeed(doomed *store.Store) *store.Store {
	set := e.termSet()
	doomed.ForEachTable(func(pidx int, t *store.Table) bool {
		set.AddKeys(t.Pairs())
		if pidx != e.V.Type {
			set.AddKeys(t.Pairs()[1:])
		}
		return true
	})
	var terms []uint64
	set.Each(func(x uint64) { terms = append(terms, x) })
	slices.Sort(terms)

	seed := store.New(e.Main.NumSlots())
	var hits []uint64
	e.Main.ForEachTable(func(pidx int, t *store.Table) bool {
		p := t.Pairs()
		hits = hits[:0]
		at := 0
		for _, x := range terms {
			lo, hi := t.SubjectRunFrom(x, at)
			hits, at = append(hits, p[2*lo:2*hi]...), hi
		}
		if hits = t.PairsWithObjectIn(set, hits); len(hits) > 0 {
			seed.Ensure(pidx).AppendPairs(hits)
		}
		return true
	})
	set.Clear()
	seed.Normalize()
	return seed
}

// possiblyNew keeps, of what the rederivation pass emitted, only the
// pairs that can be new to Main. Main was a fixpoint before doomed left
// it and the rules are monotone, so everything the pass derives from
// what remains was visible a moment ago: it is still stored, or it is in
// doomed — or, with the hierarchy encoding active, it is an rdf:type
// pair ⟨x, D⟩ that was never stored because a stored ⟨x, C⟩ with C
// below D served it. That last kind can have become new only if x lost a
// type pair, i.e. x is a subject of doomed's type table; otherwise the
// pair that shadowed it still stands and compaction would remove it
// again. So per table the answer is out ∩ doomed, plus every emitted
// type pair of a subject doomed's type table names, which the merge and
// compaction then settle as they do any round. (A schema edge never
// reaches here with the encoding active: overdelete expands it first.)
// The result is normalized: sort, merge and compaction see the tens of
// pairs that matter instead of everything the pass re-derives.
func (e *Engine) possiblyNew(outs []*store.Store, doomed *store.Store, st *RetractStats) *store.Store {
	kept := store.New(e.Main.NumSlots())
	for _, out := range outs {
		st.RederiveEmitted += out.Size()
		out.ForEachTable(func(pidx int, t *store.Table) bool {
			dt := doomed.Table(pidx)
			if dt == nil || dt.Empty() {
				return true
			}
			bySubject := pidx == e.V.Type && e.hier != nil
			for p, i := t.RawPairs(), 0; i < len(p); i += 2 {
				if lo, hi := dt.SubjectRun(p[i]); lo < hi && (bySubject || dt.Contains(p[i], p[i+1])) {
					kept.Add(pidx, p[i], p[i+1])
				}
			}
			return true
		})
	}
	kept.Normalize()
	st.RederiveKept = kept.Size()
	return kept
}

// overdelete computes the overdeletion set: every stored triple with a
// derivation path from the deleted set, found by firing the
// read-triggered rules forward from the deleted triples against the
// still-intact closure and intersecting each round's output with the
// store. Nothing is physically deleted here.
//
// Returns retry=true when a subClassOf/subPropertyOf edge entered the
// frontier while the hierarchy encoding was active: the interval index
// cannot subtract edges, so the virtual closure is expanded into the
// store, the encoding is bypassed (sticky, mirroring the guard
// machinery), and the caller restarts against the expanded store — safe
// because the closure is still intact.
func (e *Engine) overdelete(del *store.Store, st *RetractStats) (*store.Store, bool) {
	slots := e.Main.NumSlots()
	over, frontier := store.New(slots), store.New(slots)
	store.Union(over, del) // every pair of del was marked a moment ago, so it is stored
	store.Union(frontier, del)

	for frontier.Size() > 0 {
		st.Iterations++
		if e.hier != nil &&
			(hasPairs(frontier, e.V.SubClassOf) || hasPairs(frontier, e.V.SubPropertyOf)) {
			e.expandEncoding()
			st.EncodingDropped = true
			return nil, true
		}
		// Fire the rules whose read footprint meets the frontier, with
		// the frontier as the delta and the intact closure as main — the
		// standard semi-naive passes, repurposed: anything they infer
		// that is physically stored may depend on the deleted set. No rule
		// closes a θ table: the pairs the frontier can affect in one join.
		outs := e.runRules(e.triggered(frontier, (*rules.Rule).Reads), frontier)
		if aff := e.thetaPairs(frontier); aff != nil {
			outs = append(outs, aff)
		}
		next := store.New(slots)
		for _, out := range outs {
			out.ForEach(func(pidx int, s, o uint64) bool {
				if e.Main.Contains(pidx, s, o) && !over.Contains(pidx, s, o) {
					next.Add(pidx, s, o)
				}
				return true
			})
		}
		next.Normalize()
		store.Union(over, next)
		frontier = next
	}
	return over, false
}

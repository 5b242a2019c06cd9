package reasoner

import (
	"fmt"
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

	// The rederivation pass: the pairs its rules emitted, and the distinct
	// ones of them that could be new to the store and were merged.
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

	// The survivors never pass through a merge round: close the θ tables
	// they touch here, folding the restored closure pairs into delta.
	e.closeTheta(delta)

	// A surviving derivation whose antecedents were never deleted is
	// invisible to semi-naive evaluation (its antecedents are in no
	// delta), so run one full pass — delta aliasing main, first-pass
	// semantics — of exactly the rules that write into a deleted table,
	// and fold what it restores into the running delta.
	writers := e.triggered(over, (*rules.Rule).Writes)
	kept := e.possiblyNew(e.runRules(writers, e.Main), doomed, &st)
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
			// doomed is tens of pairs and the pass emits a table's worth:
			// reject on the subject range before searching.
			dp := dt.Pairs()
			first, last := dp[0], dp[len(dp)-2]
			bySubject := pidx == e.V.Type && e.hier != nil
			var kt *store.Table
			for p, i := t.RawPairs(), 0; i < len(p); i += 2 {
				if p[i] < first || p[i] > last {
					continue
				}
				var keep bool
				if bySubject {
					lo, hi := dt.SubjectRun(p[i])
					keep = lo < hi
				} else {
					keep = dt.Contains(p[i], p[i+1])
				}
				if keep {
					if kt == nil {
						kt = kept.Ensure(pidx)
					}
					kt.Append(p[i], p[i+1])
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

	wiped := make(map[int]bool)

	for frontier.Size() > 0 {
		st.Iterations++
		if e.hier != nil &&
			(hasPairs(frontier, e.V.SubClassOf) || hasPairs(frontier, e.V.SubPropertyOf)) {
			e.expandEncoding()
			st.EncodingDropped = true
			return nil, true
		}
		// No rule traces the transitive consequences of a deleted edge:
		// the θ step closes tables outside the rules. When the frontier
		// reaches a θ table — its pairs, or its owl:TransitiveProperty
		// marker — conservatively overdelete the whole table (once);
		// rederivation restores the surviving asserted edges and the θ
		// step re-closes them. A wiped rdf:type table (rdf:type declared
		// transitive) brings markers of its own, so wipe until none is new.
		for again := true; again; {
			again = false
			for _, pidx := range e.thetaTables(frontier) {
				if wiped[pidx] {
					continue
				}
				wiped[pidx], again = true, true
				pr := e.Main.Table(pidx).Pairs()
				var adds []uint64
				for i := 0; i < len(pr); i += 2 {
					if !over.Contains(pidx, pr[i], pr[i+1]) {
						adds = append(adds, pr[i], pr[i+1])
					}
				}
				if len(adds) > 0 {
					over.Ensure(pidx).AppendPairs(adds)
					frontier.Ensure(pidx).AppendPairs(adds)
				}
			}
			over.Normalize()
			frontier.Normalize()
		}

		// Fire the rules whose read footprint meets the frontier, with
		// the frontier as the delta and the intact closure as main — the
		// standard semi-naive passes, repurposed: anything they infer
		// that is physically stored may depend on the deleted set.
		next := store.New(slots)
		for _, out := range e.runRules(e.triggered(frontier, (*rules.Rule).Reads), frontier) {
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

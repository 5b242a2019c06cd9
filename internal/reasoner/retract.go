package reasoner

import (
	"fmt"
	"time"

	"inferray/internal/dictionary"
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
	Overdeleted int // stored triples removed by the overdeletion phase
	Rederived   int // overdeleted triples restored because they survive on other support

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
// The engine must be materialized, with no staged delta pending.
func (e *Engine) Retract(batch []rdf.Triple) (RetractStats, error) {
	start := time.Now()
	st := RetractStats{Requested: len(batch)}
	if !e.materialized {
		return st, fmt.Errorf("reasoner: Retract before Materialize")
	}
	if e.staged != nil && e.staged.Size() > 0 {
		return st, fmt.Errorf("reasoner: staged triples pending; Materialize before Retract")
	}
	e.asserted.Normalize()

	// Resolve the batch against the asserted record. Only asserted
	// triples seed a retraction: a derived triple has no independent
	// existence to retract, and an unknown term cannot name anything.
	slots := e.Main.NumSlots()
	del := store.New(slots)
	for _, t := range batch {
		p, ok := e.Dict.Lookup(t.P)
		if !ok || !dictionary.IsProperty(p) {
			continue
		}
		s, ok := e.Dict.Lookup(t.S)
		if !ok {
			continue
		}
		o, ok := e.Dict.Lookup(t.O)
		if !ok {
			continue
		}
		pidx := dictionary.PropIndex(p)
		if e.asserted.Contains(pidx, s, o) {
			del.Add(pidx, s, o)
		}
	}
	del.Normalize()
	st.Retracted = del.Size()
	if st.Retracted == 0 {
		st.TotalTriples = e.Size()
		st.TotalTime = time.Since(start)
		e.recordRetract(&st)
		return st, nil
	}
	e.asserted.Delete(del)

	// Phase 1: overdeletion. Retried at most once, when a schema-edge
	// delete forces the hierarchy encoding to expand first.
	e.hierClassChanged, e.hierPropChanged = false, false
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
	if st.Overdeleted == 0 {
		// Nothing stored depended on the deleted triples (e.g. they were
		// compacted type pairs the interval index still serves).
		st.TotalTriples = e.Size()
		st.TotalTime = time.Since(start)
		e.recordRetract(&st)
		return st, nil
	}

	// Phase 2: physical deletion, then rederivation of survivors.
	rederiveStart := time.Now()
	e.Main.Delete(over)
	storedAfterDelete := e.Main.Size()

	// Reseed every touched table from the asserted record. This
	// over-approximates the lost asserted triples — the whole table, not
	// just the overdeleted slice — but the merge round drops everything
	// still present, so over-approximation costs a scan, never
	// correctness.
	reseed := store.New(e.Main.NumSlots())
	over.ForEachTable(func(pidx int, t *store.Table) bool {
		if hasPairs(e.asserted, pidx) {
			reseed.Ensure(pidx).AppendPairs(e.asserted.Table(pidx).Pairs())
		}
		return true
	})
	delta := e.mergeRound(reseed)

	// A surviving derivation whose antecedents were never deleted is
	// invisible to semi-naive evaluation (its antecedents are in no
	// delta), so run one full pass — delta aliasing main, first-pass
	// semantics — of exactly the rules that write into a deleted table,
	// and fold what it restores into the running delta.
	writers := e.triggered(over, (*rules.Rule).Writes)
	store.Union(delta, e.mergeRound(e.runRules(writers, e.Main)...))

	// Everything restored so far flows through the ordinary incremental
	// fixpoint, which also re-closes any θ table the deletion opened up
	// (the reseeded raw edges are in the delta, so θ re-fires on them).
	if delta.Size() > 0 {
		var fs Stats
		e.fixpoint(delta, &fs)
		st.Iterations += fs.Iterations
	}

	st.Rederived = e.Main.Size() - storedAfterDelete
	st.RederiveTime = time.Since(rederiveStart)
	st.TotalTriples = e.Size()
	st.TotalTime = time.Since(start)
	e.recordRetract(&st)
	return st, nil
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
	over := store.New(slots)
	frontier := store.New(slots)
	del.ForEach(func(pidx int, s, o uint64) bool {
		if e.Main.Contains(pidx, s, o) {
			over.Add(pidx, s, o)
			frontier.Add(pidx, s, o)
		}
		return true
	})
	over.Normalize()
	frontier.Normalize()

	trans := e.transitiveTables()
	wiped := make(map[int]bool)

	for frontier.Size() > 0 {
		st.Iterations++
		if e.hier != nil &&
			(hasPairs(frontier, e.V.SubClassOf) || hasPairs(frontier, e.V.SubPropertyOf)) {
			e.expandEncoding()
			st.EncodingDropped = true
			return nil, true
		}
		// θ emits nothing new on an already-closed table, so rule firing
		// alone cannot trace transitive consequences of a deleted edge.
		// When the frontier reaches a θ-closed table, conservatively
		// overdelete the whole table (once); rederivation restores the
		// surviving asserted edges and the fixpoint re-closes them.
		for _, pidx := range trans {
			if wiped[pidx] || !hasPairs(frontier, pidx) {
				continue
			}
			wiped[pidx] = true
			if !hasPairs(e.Main, pidx) {
				continue
			}
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

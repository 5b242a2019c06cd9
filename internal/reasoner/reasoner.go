// Package reasoner drives Inferray's main loop (Algorithm 1 of the
// paper): a dedicated transitive-closure stage over the schema followed
// by semi-naive fixed-point application of the fragment's rules, with
// per-rule output stores and a parallel per-property merge (Figure 5)
// between iterations, each merge followed by the same θ closing.
//
// Two refinements extend the paper's loop. First, rule firing is
// scheduled from the delta: every rule carries a property footprint
// derived from its declarative spec (rules.Rules), and an
// iteration only fires the rules whose read footprint meets a non-empty
// table of the previous round's delta — the rest are skipped, which
// Stats reports per iteration. Second, every batch is a delta: the
// triples loaded since the last Materialize are absorbed by one path,
// and the fixpoint is seeded with only what they add instead of
// recomputing the closure from scratch; the result is equivalent to a
// full rematerialization over the union.
package reasoner

import (
	"fmt"
	"slices"
	"time"

	"inferray/internal/closure"
	"inferray/internal/dictionary"
	"inferray/internal/hierarchy"
	"inferray/internal/metrics"
	"inferray/internal/rdf"
	"inferray/internal/rules"
	"inferray/internal/store"
)

// Options configures an Engine.
type Options struct {
	// Fragment selects the ruleset (default RDFSDefault).
	Fragment rules.Fragment
	// Parallel enables one goroutine per rule and parallel merging,
	// normalizing and interning. Parsing is the caller's:
	// rdf.ReadNTriplesSlabs parses a long document on GOMAXPROCS
	// goroutines either way.
	Parallel bool
	// MaxIterations stops the fixpoint after that many rounds; 0 means
	// unlimited (the fixpoint terminates on its own: the term universe
	// is finite). A test instrument only — load_test.go and
	// TestMaxIterationsBounds use it to observe a half-run closure; the
	// public API has no way to set it, because tripping it leaves an
	// incomplete closure that later batches extend as if it were whole.
	MaxIterations int
	// HierarchyEncoding keeps the transitive subClassOf/subPropertyOf
	// closure — and the rdf:type triples it entails — virtual: a
	// LiteMat-style interval index answers subsumption in O(1) and the
	// rules switch to interval-driven forms, so those triples are never
	// materialized. The visible closure (Size, Triples, Contains, the
	// query engine) is identical to a full materialization. When the
	// loaded data re-describes the RDFS/OWL meta-vocabulary itself (see
	// DESIGN.md §10 for the exact guards) the engine transparently falls
	// back to full materialization, so the option is always safe.
	HierarchyEncoding bool
	// Metrics, when non-nil, receives materialization, scheduling, and
	// retraction instrumentation (see NewMetrics). Purely additive:
	// results and Stats are identical either way.
	Metrics *Metrics
}

// RoundStats reports what one fixpoint iteration did, and where its wall
// time went: selecting and firing the rules, store.MergeRound, and
// maintenance after the merge — re-closing the θ tables the round
// touched, then keeping the hierarchy encoding current (index rebuild,
// guards, type compaction, a guard trip's expansion). The batch that
// seeded the loop is not a round: its merge and maintenance are
// Stats.NormalizeTime and Stats.ClosureTime. The times are disjoint, an
// expansion nested in a maintenance counted once, so their sum over
// Stats.Rounds is at most Stats.LoopTime.
type RoundStats struct {
	RulesFired   int // rules whose read footprint met the round's delta
	RulesSkipped int // rules the scheduler skipped
	Emitted      int // pairs the fired rules handed to the merge, before it dedups them
	NewTriples   int // distinct new triples the merge round produced, θ closures included

	RulesTime    time.Duration
	MergeTime    time.Duration
	MaintainTime time.Duration
}

// Stats reports what a materialization did. InputTriples counts the
// distinct triples of the batch that were not visible before it and
// InferredTriples the further closure growth; the pre-existing closure
// is neither. Incremental is false only for a new engine's batch, which
// Main adopts in place.
// TotalTriples and InferredTriples count the *visible* closure, so they
// are identical with and without the hierarchy encoding; the
// materialized/virtual split is reported separately.
type Stats struct {
	InputTriples    int
	InferredTriples int
	TotalTriples    int
	Iterations      int
	RulesFired      int          // total across iterations
	RulesSkipped    int          // total across iterations
	Rounds          []RoundStats // per-iteration breakdown
	Incremental     bool
	ClosureTime     time.Duration // the seeding round's θ step and hierarchy maintenance
	LoopTime        time.Duration // the fixpoint alone: Rounds and their bookkeeping
	CountTime       time.Duration // sizing the visible closure before and after (Size)
	TotalTime       time.Duration // the Materialize call: normalize + closure + loop + count

	// The ingest phases of the batches this materialization absorbed,
	// all wall time. ParseTime is set by the caller that parsed (the
	// engine never sees bytes): reading and block-parsing the documents,
	// with the range-local interning that overlaps it on other cores.
	// EncodeTime is the rest of dictionary encoding — interning not yet
	// done, the ordered merge into the dictionary, and the table fill.
	// NormalizeTime is the seeding round's sort, dedup and merge of the
	// loaded tables, the first part of TotalTime. ParseTime + EncodeTime +
	// TotalTime spans bytes-in to closure.
	ParseTime     time.Duration
	EncodeTime    time.Duration
	NormalizeTime time.Duration

	// MaterializedTriples is the number of triples physically stored;
	// VirtualTriples the further visible triples the hierarchy interval
	// index answers without storing (zero when the encoding is off or
	// bypassed). MaterializedTriples + VirtualTriples == TotalTriples.
	MaterializedTriples int
	VirtualTriples      int
	// HierarchyEncoded reports whether the interval encoding is active
	// (requested, and not bypassed by the meta-vocabulary guards).
	HierarchyEncoded bool
	// HierarchyClasses / HierarchyProperties count the nodes of the two
	// interval-encoded hierarchies; HierarchyIntervals the total number
	// of intervals stored across both side tables.
	HierarchyClasses    int
	HierarchyProperties int
	HierarchyIntervals  int
}

// Engine is a forward-chaining reasoner: load triples, call Materialize,
// read the closure back out. Every load stages a batch; the next
// Materialize extends the closure by it.
//
// Main is the only store. Which of its pairs were explicitly loaded
// (asserted) rather than only derived is a mark on the pair itself
// (store.Table.Marked, DESIGN.md §11): Retract may only remove marked
// pairs, and a marked pair is never compacted away.
type Engine struct {
	Dict *dictionary.Dictionary
	V    *rules.Vocab
	Main *store.Store

	opts  Options
	rules []rules.Rule

	// staged holds the triples loaded since the last Materialize, which
	// absorbs it; nil when nothing is staged. A new engine's batch is
	// Main itself, which the first Materialize adopts in place; every
	// later batch is a store of its own, merged into Main.
	staged     *store.Store
	encodeTime time.Duration // spent loading since the last Materialize

	// hier is the hierarchy interval index when the encoding is active;
	// nil when the option is off, before the first Materialize, or after
	// a guard-forced bypass. The bypass is sticky: maintainHier rebuilds
	// only a standing index, and only adopting a new engine's batch and
	// RestoreState build one from nothing, so once a guard trips or a
	// schema edge is retracted the engine stays on full materialization.
	hier     *hierarchy.Index
	typeRuns hierarchy.RunScratch // compactTypeTable's working memory
	terms    store.TermSet        // the engine's own term set, handed out by termSet

	// ruleTerms hands out a term set per rule, aligned with rules by
	// index (rules.Context.Terms): a rule runs on one goroutine, so its
	// set is never shared. Made once, so an application allocates none.
	ruleTerms []func() *store.TermSet

	// The per-rule instruments, aligned with rules by index; nil when
	// Options.Metrics is nil. mFired / mSkipped count scheduling
	// decisions of the fixpoint; mSeconds / mPairs accumulate, at the one
	// firing site (runRules), the time each rule ran and the pairs it
	// emitted before the merge dedups them.
	mFired, mSkipped, mSeconds, mPairs []*metrics.Counter
}

// New creates an engine for the given options, with the vocabulary
// pre-registered at the head of the dense numbering and every rule
// annotated with its property footprint.
func New(opts Options) *Engine {
	d := dictionary.NewWithVocabulary(rdf.VocabularyProperties, rdf.VocabularyResources)
	v := rules.ResolveVocab(d)
	e := &Engine{Dict: d, V: v, opts: opts, rules: rules.Rules(opts.Fragment, v)}
	for range e.rules {
		set := new(store.TermSet)
		e.ruleTerms = append(e.ruleTerms, func() *store.TermSet { set.Reset(e.Dict.IDRange()); return set })
	}
	e.resolveRuleCounters()
	e.Main = store.New(d.NumProperties())
	e.staged = e.Main
	if opts.Metrics != nil {
		e.Main.SetMetrics(opts.Metrics.Store)
	}
	return e
}

// Fragment returns the ruleset the engine materializes under.
func (e *Engine) Fragment() rules.Fragment { return e.opts.Fragment }

// Materialize absorbs the staged batch — Algorithm 1 over whatever was
// loaded since the last call — and returns run statistics. The batch
// seeds one round (mergeRound): merged into Main or, on a new engine,
// adopted as Main, then the θ step and the hierarchy maintenance. The
// fixpoint runs from that round's delta, producing the store a full
// materialization over the union would.
func (e *Engine) Materialize() Stats {
	start := time.Now()
	staged := e.staged
	e.staged = nil
	st := Stats{Incremental: staged != e.Main}
	prevTotal := 0
	if st.Incremental {
		prevTotal = e.Size()
		st.CountTime = time.Since(start)
	}
	if staged != nil {
		seedStart := time.Now()
		served := e.servedVirtually(staged)
		r := e.mergeRound(true, staged)
		// The batch's own triples that were not visible before it: neither
		// stored nor served by the hierarchy. The θ closures and an encoding
		// expansion the round folds into its delta are not input.
		st.InputTriples = r.fresh - served
		st.NormalizeTime = time.Since(seedStart) - r.maintain
		st.ClosureTime = r.maintain
		if r.delta.Size() > 0 {
			loopStart := time.Now()
			e.fixpoint(r.delta, &st)
			st.LoopTime = time.Since(loopStart)
		}
	}
	countStart := time.Now()
	st.TotalTriples = e.Size()
	st.CountTime += time.Since(countStart)
	st.InferredTriples = st.TotalTriples - prevTotal - st.InputTriples
	st.TotalTime = time.Since(start)

	st.EncodeTime, e.encodeTime = e.encodeTime, 0
	st.MaterializedTriples = e.Main.Size()
	st.VirtualTriples = st.TotalTriples - st.MaterializedTriples
	if e.hier != nil {
		st.HierarchyEncoded = true
		st.HierarchyClasses = e.hier.Classes.Nodes()
		st.HierarchyProperties = e.hier.Props.Nodes()
		st.HierarchyIntervals = e.hier.Intervals()
	}
	e.recordMaterialize(&st)
	return st
}

// adopt takes a new engine's batch, loaded straight into Main, as its
// first round without a copy: the tables are sorted and deduplicated and
// every pair is marked asserted — from here on pairs enter Main only
// through merges, which carry the marks. With the encoding requested the
// index starts empty, so subClassOf and subPropertyOf are no θ tables;
// the maintenance after the θ step builds it from the batch's edges. The
// round's delta is Main itself: every rule fires on the first pass.
func (e *Engine) adopt() *store.Store {
	if e.opts.Parallel {
		e.Main.NormalizeParallel()
	} else {
		e.Main.Normalize()
	}
	e.Main.ForEachTable(func(_ int, t *store.Table) bool {
		t.MarkAll()
		return true
	})
	if e.opts.HierarchyEncoding {
		e.hier = hierarchy.Build(nil, nil, e.V.Type, e.V.SubClassOf, e.V.SubPropertyOf)
	}
	return e.Main
}

// servedVirtually counts the pairs of a staged batch that are not stored
// but visible all the same, because the hierarchy encoding serves them:
// the merge finds them fresh, yet they add nothing to the closure.
func (e *Engine) servedVirtually(staged *store.Store) int {
	hv := e.HierView()
	if hv == nil {
		return 0
	}
	n := 0
	for _, pidx := range []int{e.V.SubClassOf, e.V.SubPropertyOf, e.V.Type} {
		t := staged.Table(pidx)
		if t == nil {
			continue
		}
		t.Normalize() // as the merge would: each pair once
		p := t.Pairs()
		for i := 0; i < len(p); i += 2 {
			if !e.Main.Contains(pidx, p[i], p[i+1]) && hv.Contains(pidx, p[i], p[i+1]) {
				n++
			}
		}
	}
	return n
}

// fixpoint runs the semi-naive loop (Algorithm 1 lines 3–8), seeded with
// delta, until a round's delta comes back empty. A delta that aliases
// main is the first pass over an adopted batch.
func (e *Engine) fixpoint(delta *store.Store, st *Stats) {
	for e.opts.MaxIterations == 0 || st.Iterations < e.opts.MaxIterations {
		start := time.Now()
		outs, fired := e.applyRules(delta)
		rulesTime := time.Since(start)
		emitted := 0
		for _, out := range outs {
			emitted += out.Size()
		}
		r := e.mergeRound(false, outs...)
		delta = r.delta
		skipped := len(e.rules) - fired
		st.Iterations++
		st.RulesFired += fired
		st.RulesSkipped += skipped
		st.Rounds = append(st.Rounds, RoundStats{
			RulesFired:   fired,
			RulesSkipped: skipped,
			Emitted:      emitted,
			NewTriples:   delta.Size(),
			RulesTime:    rulesTime,
			MergeTime:    r.merge,
			MaintainTime: r.maintain,
		})
		if delta.Size() == 0 {
			break
		}
	}
}

// round is what mergeRound hands back.
type round struct {
	// delta is the round: its non-empty tables are what changed, the θ
	// closures' fresh pairs included, and the next rule selection reads
	// nothing else.
	delta *store.Store
	// fresh counts the pairs the merge itself found new, before the θ
	// step and the maintenance folded theirs into delta.
	fresh int
	// merge and maintain are how long the merge and the maintenance
	// after it took; an encoding expansion the maintenance runs is a
	// nested mergeRound whose times are inside maintain.
	merge, maintain time.Duration
}

// mergeRound is the one step that ends every round — staged input, rule
// outputs, a reseed, an encoding expansion alike: merge the outputs into
// main, close the θ tables the merge touched (closeTheta), then bring
// the hierarchy encoding up to date with what arrived. asserted is true
// for the one round whose outputs are input: the staged batch. A batch
// that is Main itself — a new engine's — is adopted instead of merged.
func (e *Engine) mergeRound(asserted bool, outs ...*store.Store) round {
	start := time.Now()
	typeVersion := e.typeVersion()
	var delta *store.Store
	if asserted && outs[0] == e.Main {
		delta = e.adopt()
	} else {
		delta = store.MergeRound(e.Main, e.opts.Parallel, asserted, outs...)
	}
	r := round{delta: delta, fresh: delta.Size()}
	merged := time.Now()
	if fresh := e.closeTheta(delta); fresh != nil && delta != e.Main {
		store.Union(delta, fresh)
	}
	e.maintainHier(delta, typeVersion)
	r.merge, r.maintain = merged.Sub(start), time.Since(merged)
	return r
}

// typeVersion returns the rdf:type table's version, the key of the
// visible-count memo (hierarchy.Index.CarryTypeStats); 0 before the
// table exists.
func (e *Engine) typeVersion() uint64 {
	if t := e.Main.Table(e.V.Type); t != nil {
		return t.Version()
	}
	return 0
}

// hasPairs reports whether st holds at least one pair of property pidx.
func hasPairs(st *store.Store, pidx int) bool {
	t := st.Table(pidx)
	return t != nil && !t.Empty()
}

// thetaPairs returns, per θ table change touches, the pairs of Main the
// change can affect, or nil when it touches none. The θ tables are the
// ones kept transitively closed (§4.1): subClassOf and subPropertyOf
// unless the hierarchy encoding serves them, and under RDFS-Plus
// owl:sameAs and every owl:TransitiveProperty of Main. A change that
// declares a table transitive, or is Main itself, affects all of it; one
// that holds its pairs affects, the table being closed before the change,
// only the pairs among their endpoints and one-step neighbours (DESIGN.md
// §11). closeTheta closes these pairs, overdelete dooms them.
func (e *Engine) thetaPairs(change *store.Store) (aff *store.Store) {
	var declared []int
	if e.opts.Fragment.UsesSameAs() {
		declared = rules.TransitiveProps(change, e.V)
	}
	affect := func(pidx int) {
		t, whole := e.Main.Table(pidx), change == e.Main || slices.Contains(declared, pidx)
		if t == nil || t.Empty() || !whole && !hasPairs(change, pidx) || aff != nil && aff.Table(pidx) != nil {
			return
		}
		p := t.Pairs()
		if !whole {
			p = neighbourhood(e.termSet(), t, change.Table(pidx).Pairs())
		}
		if aff == nil {
			aff = store.New(e.Main.NumSlots())
		}
		aff.Ensure(pidx).AppendPairs(p)
	}
	if e.hier == nil {
		affect(e.V.SubClassOf)
		affect(e.V.SubPropertyOf)
	}
	if e.opts.Fragment.UsesSameAs() {
		affect(e.V.SameAs)
		for _, pidx := range rules.TransitiveProps(e.Main, e.V) {
			affect(pidx)
		}
	}
	return aff
}

// neighbourhood returns, ⟨s,o⟩-sorted, the pairs of t among the distinct
// endpoints of the change pairs and the terms one pair of t away from
// them, by subject run and by a lookup of the endpoints among t's
// objects, which builds no ⟨o,s⟩ list. Each endpoint is expanded once:
// the work is at most twice the table however many change pairs share
// one. set is empty on entry and left empty.
func neighbourhood(set *store.TermSet, t *store.Table, change []uint64) []uint64 {
	var near []uint64
	add := func(x uint64) {
		if set.Add(x) {
			near = append(near, x)
		}
	}
	for _, x := range change {
		add(x)
	}
	p, ends := t.Pairs(), len(near)
	hits := t.PairsWithObjectIn(set, nil)
	for i := 0; i < len(hits); i += 2 {
		add(hits[i])
	}
	for _, x := range near[:ends] {
		lo, hi := store.KeyRun(p, x)
		for i := lo; i < hi; i++ {
			add(p[2*i+1])
		}
	}
	slices.Sort(near)
	var among []uint64
	for _, x := range near {
		lo, hi := store.KeyRun(p, x)
		for i := lo; i < hi; i++ {
			if set.Has(p[2*i+1]) {
				among = append(among, x, p[2*i+1])
			}
		}
	}
	set.Clear()
	return among
}

// termSet hands out the engine's own term set, empty and ranged over
// the dictionary's IDs. Its users — rederiveSeed, neighbourhood, guard
// G2 — run one at a time, each leaving it empty.
func (e *Engine) termSet() *store.TermSet {
	e.terms.Reset(e.Dict.IDRange())
	return &e.terms
}

// closeTheta is the θ step: it closes the pairs thetaPairs says change
// can affect, merges what the closures add into Main and returns those
// fresh pairs, nil when no θ table was touched. It runs in every
// mergeRound and on Retract's doomed pairs once they have left Main.
// owl:sameAs is closed as an undirected graph, its pairs with their
// reverses, which is EQ-SYM and EQ-TRANS in one call. Only a closed
// rdf:type table (rdf:type itself declared transitive) can declare
// further θ tables, so only then does the step go again.
func (e *Engine) closeTheta(change *store.Store) (fresh *store.Store) {
	for aff := e.thetaPairs(change); aff != nil; aff = e.thetaPairs(change) {
		out := store.New(e.Main.NumSlots())
		aff.ForEachTable(func(pidx int, t *store.Table) bool {
			p := t.RawPairs()
			if pidx == e.V.SameAs {
				for i := len(p) - 2; i >= 0; i -= 2 {
					p = append(p, p[i+1], p[i])
				}
			}
			out.Ensure(pidx).AppendPairs(closure.Close(p))
			return true
		})
		change = store.MergeRound(e.Main, e.opts.Parallel, false, out)
		if fresh == nil {
			fresh = change
		} else {
			store.Union(fresh, change)
		}
		if !hasPairs(change, e.V.Type) {
			break
		}
	}
	return fresh
}

// buildHier (re)builds the hierarchy interval index from the raw
// subClassOf/subPropertyOf edges of the main store.
func (e *Engine) buildHier() {
	raw := func(pidx int) []uint64 {
		t := e.Main.Table(pidx)
		if t == nil || t.Empty() {
			return nil
		}
		return t.Pairs()
	}
	e.hier = hierarchy.Build(raw(e.V.SubClassOf), raw(e.V.SubPropertyOf),
		e.V.Type, e.V.SubClassOf, e.V.SubPropertyOf)
}

// hierGuardsOK checks the bypass guards of the hierarchy encoding
// (DESIGN.md §10): the interval-driven rule forms are equivalent to full
// materialization only while the loaded data does not re-describe the
// RDFS/OWL meta-vocabulary itself. The guards are deliberately
// conservative — tripping one costs only the encoding, never soundness.
//
// G3 reads only the sameAs pairs of st: Main right after the index is
// built, a round's delta while it stands (see maintainHier). That is
// sound under one invariant: every stored sameAs endpoint has been
// checked against the current index, either by the walk over Main when
// the index was last built, or in the merge round whose delta brought
// it — an adopted batch's round walks Main after its θ step. One path
// stores sameAs pairs outside a merge round and adds no endpoint:
// Retract's closeTheta on its doomed pairs restores doomed pairs the
// survivors still entail. A new path that stores sameAs pairs outside
// mergeRound must pass them through this check itself.
func (e *Engine) hierGuardsOK(st *store.Store) bool {
	h, v := e.hier, e.V
	// G1: no rule-marker class may acquire subclasses. Several rules
	// select subjects by ⟨x rdf:type marker⟩ runs over the stored type
	// table; with a class strictly below a marker, a virtual type pair
	// could carry the marker as object and the stored run would miss it.
	for _, m := range []uint64{
		v.Class, v.Property, v.Datatype, v.ContainerMembership,
		v.FunctionalProp, v.InverseFunctionalProp, v.SymmetricProp,
		v.TransitiveProp, v.DatatypeProp, v.ObjectProp, v.OWLClass,
	} {
		if h.Classes.HasSubs(m) {
			return false
		}
	}
	// G2: the three encoded predicates must not themselves be described
	// by schema triples — a subPropertyOf/domain/range/equivalence/
	// inverse/sameAs/type statement about rdf:type, rdfs:subClassOf or
	// rdfs:subPropertyOf would make rules join against their (virtually
	// incomplete) stored tables. By object, that is one lookup of the
	// three per table, which builds no ⟨o,s⟩ list.
	encoded := e.termSet()
	defer encoded.Clear()
	for _, pidx := range []int{v.Type, v.SubClassOf, v.SubPropertyOf} {
		encoded.Add(dictionary.PropID(pidx))
	}
	describes := func(pidx int, byObject bool) bool {
		t := e.Main.Table(pidx)
		if t == nil || t.Empty() {
			return false
		}
		found := false
		encoded.Each(func(m uint64) {
			lo, hi := t.SubjectRun(m)
			found = found || lo < hi
		})
		return found || byObject && len(t.PairsWithObjectIn(encoded, nil)) > 0
	}
	if describes(v.SubPropertyOf, false) || describes(v.Domain, false) ||
		describes(v.Range, false) || describes(v.Type, false) ||
		describes(v.EquivProp, true) || describes(v.InverseOf, true) ||
		e.opts.Fragment.UsesSameAs() && describes(v.SameAs, true) {
		return false
	}
	// G3 (RDFS-Plus only): owl:sameAs endpoints must stay clear of both
	// hierarchies — sameAs-driven replication of a hierarchy node would
	// have to flow through the virtual closure.
	if e.opts.Fragment.UsesSameAs() {
		if t := st.Table(v.SameAs); t != nil && !t.Empty() {
			for _, id := range t.Pairs() {
				if h.Classes.Has(id) || h.Props.Has(id) {
					return false
				}
			}
		}
	}
	return true
}

// maintainHier runs after every merge round, on the round's delta: it
// rebuilds the interval index when raw hierarchy edges arrived,
// re-checks the bypass guards when any guard-relevant table received
// pairs, and — if a guard tripped — expands the virtual closure into the
// store, folding what that added into the delta. Otherwise the visible
// count is carried from typeVersion — the type table's version before
// the merge — over the runs the delta's type pairs touched, and those
// runs are compacted. The hierarchy nodes change only with a rebuild, so
// G3 walks every stored sameAs pair after one and only the delta's
// otherwise (the invariant this relies on is at hierGuardsOK). An
// adopted batch (delta == Main) is all input, and an asserted pair
// stays: nothing is compacted, and an expansion is already in Main.
func (e *Engine) maintainHier(delta *store.Store, typeVersion uint64) {
	if e.hier == nil {
		return
	}
	classChanged := hasPairs(delta, e.V.SubClassOf)
	rebuilt := classChanged || hasPairs(delta, e.V.SubPropertyOf)
	if rebuilt {
		e.buildHier()
	}
	typeChanged := hasPairs(delta, e.V.Type)
	recheck := rebuilt || typeChanged ||
		hasPairs(delta, e.V.Domain) || hasPairs(delta, e.V.Range) ||
		hasPairs(delta, e.V.SameAs) || hasPairs(delta, e.V.EquivProp) ||
		hasPairs(delta, e.V.InverseOf)
	sameAs := delta
	if rebuilt {
		sameAs = e.Main
	}
	if recheck && !e.hierGuardsOK(sameAs) {
		// The expansion's genuinely-new triples join the running delta so
		// the fixpoint processes them like any other derivation.
		exp := e.expandEncoding()
		if delta != e.Main {
			store.Union(delta, exp)
		}
		return
	}
	if delta == e.Main {
		return
	}
	if typeChanged {
		// Before compaction: a fresh pair may be compacted out of the delta a
		// moment later, but the runs it joined are counted with it in place.
		// A rebuilt index starts cold and ignores the call.
		e.hier.CarryTypeStats(e.Main.Table(e.V.Type), typeVersion, delta.Table(e.V.Type).Pairs(), true)
	}
	if classChanged || typeChanged {
		e.compactTypeTable(delta, classChanged)
	}
}

// compactTypeTable drops stored rdf:type pairs the interval index
// already serves: ⟨x, D⟩ is redundant when another stored pair ⟨x, C⟩
// of the same subject has C strictly below D (inside a subsumption
// cycle the smallest class id is kept, so mutually-subsuming classes
// never shadow each other away). A redundant pair is visible through
// the intervals either way, so dropping it from the main store AND
// from the running delta reproduces exactly what the materialized
// engine's merge does with a derivation that is already present:
// no rule ever fires on it again. Rules that read the stored type
// table directly select marker classes, which guard G1 keeps
// subclass-free — a marker pair can therefore never be redundant.
// A delta type table that compacts to nothing triggers no rule.
//
// An asserted (marked) pair is the one exception: it leaves the delta
// like any other but stays stored, so it remains retractable with no
// side record of what was compacted. The view dedups (typeObjects,
// typeStats), so a stored shadowed pair changes no visible result.
// Retract passes its unmarked batch as the delta: a retracted pair that
// is shadowed leaves the store and the batch here, and seeds nothing.
//
// The work is proportional to the round. No unmarked pair is shadowed
// after a mergeRound, so while the class hierarchy stands still only a
// subject the delta's type table names can have gained one: just those
// runs are visited. The whole table is swept (full) only for a round
// that changed the class hierarchy, which can shadow pairs anywhere.
func (e *Engine) compactTypeTable(delta *store.Store, full bool) {
	dt := delta.Table(e.V.Type)
	touched := dt
	if full {
		touched = nil
	}
	unmarked, marked := e.shadowedTypePairs(touched)
	if len(unmarked)+len(marked) == 0 {
		return
	}
	// A shadowed pair is visible with or without its stored copy: the
	// visible count moves to the new version as it is.
	tt := e.Main.Table(e.V.Type)
	before := tt.Version()
	tt.DeletePairs(unmarked)
	e.hier.CarryTypeStats(tt, before, nil, false)
	if dt != nil {
		// The delta is a subset of the merged main store, so a delta pair
		// is shadowed iff main's run says so — marked or not.
		dt.DeletePairs(unmarked)
		dt.DeletePairs(marked)
	}
}

// shadowedTypePairs lists, ⟨s,o⟩-sorted, the stored rdf:type pairs whose
// class is shadowed inside its subject's run — those without an asserted
// mark and, apart, the few with one — visiting the subjects of touched (a
// type table) or, when touched is nil, every subject. Touched runs are
// found by galloping forward from the previous one, so a one-triple
// round does not scan the table.
func (e *Engine) shadowedTypePairs(touched *store.Table) (unmarked, marked []uint64) {
	if e.hier == nil || e.hier.Classes.VisiblePairs() == 0 || !hasPairs(e.Main, e.V.Type) {
		return nil, nil
	}
	t := e.Main.Table(e.V.Type)
	pairs := t.Pairs()
	settle := func(lo, hi int) {
		for i, shadowed := range e.hier.Classes.Shadowed(pairs[2*lo:2*hi], &e.typeRuns) {
			if !shadowed {
				continue
			}
			if t.Marked(lo + i) {
				marked = append(marked, pairs[2*(lo+i)], pairs[2*(lo+i)+1])
			} else {
				unmarked = append(unmarked, pairs[2*(lo+i)], pairs[2*(lo+i)+1])
			}
		}
	}
	if touched == nil {
		for lo, hi, n := 0, 0, len(pairs)/2; lo < n; lo = hi {
			for hi = lo + 1; hi < n && pairs[2*hi] == pairs[2*lo]; hi++ {
			}
			settle(lo, hi)
		}
		return unmarked, marked
	}
	tp := touched.Pairs()
	hi := 0
	for i := 0; i < len(tp); i += 2 {
		if i == 0 || tp[i] != tp[i-2] {
			var lo int
			lo, hi = t.SubjectRunFrom(tp[i], hi)
			settle(lo, hi)
		}
	}
	return unmarked, marked
}

// ShadowedTypePairs counts, in one full sweep, the stored rdf:type pairs
// the interval index already serves and no assertion holds in place. It
// is zero after every merge round — the invariant that lets compaction
// visit only the runs a round touched — and exported for the tests that
// check exactly that.
func (e *Engine) ShadowedTypePairs() int {
	unmarked, _ := e.shadowedTypePairs(nil)
	return len(unmarked) / 2
}

// CheckCarried recomputes what the write path carries from one version
// to the next instead of recomputing — the visible count behind Size(),
// the planner's type statistics, every cached ⟨o,s⟩ list — and reports
// the first difference from a cold recount or a rebuild. Like
// ShadowedTypePairs it exists for the equivalence suites, which call it
// after every operation; it drops the count memo, so it needs the same
// exclusive access a write does.
func (e *Engine) CheckCarried() error {
	if hv := e.HierView(); hv != nil {
		size, stats := e.Size(), hv.Stats(e.V.Type)
		e.hier.ForgetTypeStats()
		if cold := e.Size(); cold != size {
			return fmt.Errorf("reasoner: carried Size() %d, cold recount %d", size, cold)
		}
		if cold := hv.Stats(e.V.Type); cold != stats {
			return fmt.Errorf("reasoner: carried rdf:type stats %+v, cold recount %+v", stats, cold)
		}
	}
	var err error
	e.Main.ForEachTable(func(pidx int, t *store.Table) bool {
		if os, ok := t.CachedOS(); ok {
			var cold store.Table
			cold.AppendPairs(t.Pairs())
			cold.Normalize()
			if !slices.Equal(os, cold.OS()) {
				err = fmt.Errorf("reasoner: cached ⟨o,s⟩ list of %s differs from a rebuild",
					e.Dict.MustDecode(dictionary.PropID(pidx)))
			}
		}
		return err == nil
	})
	return err
}

// expandEncoding materializes every virtual triple into the main store
// and permanently disables the encoding (the bypass is sticky), leaving
// the visible closure exactly as it was. It returns the triples that
// were genuinely new to the store. A guard trip mid-fixpoint, a schema
// edge entering an overdeletion frontier and the restore of a reduced
// image onto an engine that will not serve virtual triples all end here.
func (e *Engine) expandEncoding() *store.Store {
	view := &hierarchy.View{St: e.Main, Idx: e.hier}
	exp := store.New(e.Main.NumSlots())
	for _, pidx := range []int{e.V.SubClassOf, e.V.SubPropertyOf, e.V.Type} {
		out := exp.Ensure(pidx)
		view.ScanAll(pidx, false, func(s, o uint64) bool {
			out.Append(s, o)
			return true
		})
	}
	e.hier = nil
	return e.mergeRound(false, exp).delta
}

// applyRules fires the scheduled rules of the fragment against (main,
// delta) and returns their output stores with the number fired. A rule
// is scheduled only when its read footprint meets a non-empty delta
// table — a rule whose antecedent tables received nothing new cannot
// derive anything new (semi-naive evaluation) and is skipped — except on
// the first pass over an adopted batch, where delta aliases main and
// every rule fires.
func (e *Engine) applyRules(delta *store.Store) ([]*store.Store, int) {
	var runnable []int
	if delta == e.Main {
		for i := range e.rules {
			runnable = append(runnable, i)
		}
	} else {
		runnable = e.triggered(delta, (*rules.Rule).Reads)
	}
	if e.mFired != nil {
		// runnable is ascending by construction, so one merge-walk marks
		// every rule as fired or skipped.
		j := 0
		for i := range e.rules {
			if j < len(runnable) && runnable[j] == i {
				e.mFired[i].Inc()
				j++
			} else {
				e.mSkipped[i].Inc()
			}
		}
	}
	return e.runRules(runnable, delta), len(runnable)
}

// triggered lists, ascending, the rules whose footprint — Reads or
// Writes, as side picks — meets a non-empty table of st. It is the whole
// scheduler: the fixpoint and overdeletion select by what a rule reads
// from the delta or frontier, rederivation by what it writes into the
// tables a deletion emptied and reads from its seed.
func (e *Engine) triggered(st *store.Store, side func(*rules.Rule) rules.Footprint) []int {
	runnable := make([]int, 0, len(e.rules))
	for i := range e.rules {
		if side(&e.rules[i]).Triggered(st) {
			runnable = append(runnable, i)
		}
	}
	return runnable
}

// runRules fires the given rules against (main, delta), each into a
// private output store (one thread per rule, §4.3), and returns the
// outputs for mergeRound. Every rule application — full, incremental,
// overdeletion, rederivation — passes through here, so this is where
// per-rule time and output are recorded.
func (e *Engine) runRules(runnable []int, delta *store.Store) []*store.Store {
	slots := e.Main.NumSlots()
	outs := make([]*store.Store, len(runnable))
	store.RunPool(e.opts.Parallel, len(runnable), func(k int) {
		i := runnable[k]
		var start time.Time
		if e.mSeconds != nil {
			start = time.Now()
		}
		outs[k] = store.New(slots)
		e.rules[i].Apply(&rules.Context{
			Main: e.Main, Delta: delta, Out: outs[k], V: e.V,
			Hier: e.hier, Terms: e.ruleTerms[i],
		})
		if e.mSeconds != nil {
			e.mSeconds[i].Add(uint64(time.Since(start)))
			e.mPairs[i].Add(uint64(outs[k].Size()))
		}
	})
	return outs
}

// RestoreState replaces the engine's dictionary and store with a
// previously snapshotted pair — tables normalized, asserted marks in
// place, as snapshot.Read returns them. The dictionary must contain the
// standard vocabulary at its head (snapshots written by this package
// always do: the vocabulary is registered at engine construction, before
// any data term). The vocabulary indexes are re-resolved and verified.
// An image is written from a closure, so nothing is left staged:
// re-deriving the (empty) fixpoint would only waste the cold start, and
// the next Materialize merges its batch into the restored closure.
//
// encoded declares that the snapshot was written by an engine with the
// hierarchy encoding active, i.e. the stored closure is reduced (the
// transitive subsumption and derived type triples are absent). In that
// case the interval index is rebuilt — deterministically, from the
// stored edges — or, when this engine runs without the encoding, the
// reduced closure is expanded back into the store. Either way the
// visible closure is exactly the snapshotted one. A snapshot that is
// not encoded restores onto full materialization whatever the option
// says: the restored engine is in the state its writer was in.
func (e *Engine) RestoreState(d *dictionary.Dictionary, st *store.Store, encoded bool) error {
	for i, term := range rdf.VocabularyProperties {
		id, ok := d.Lookup(term)
		if !ok || dictionary.PropIndex(id) != i {
			return fmt.Errorf("reasoner: snapshot dictionary lacks pinned vocabulary (%s)", term)
		}
	}
	e.Dict = d
	e.V = rules.ResolveVocab(d)
	st.Grow(d.NumProperties())
	e.Main = st
	if e.opts.Metrics != nil {
		st.SetMetrics(e.opts.Metrics.Store)
	}
	e.staged = nil
	// A fully materialized snapshot — its writer ran without the encoding,
	// or had dropped it (a meta-vocabulary guard, a schema retraction) —
	// leaves hier nil: the restored engine stays on full materialization
	// too, the same sticky bypass, so it keeps the writer's stored tables.
	// Indexing a closed store would leave subsumption-derived type triples
	// stored where retraction expects them virtual, and would let the
	// store generation drift from the writer's.
	e.hier = nil
	if encoded {
		e.buildHier()
		if !e.opts.HierarchyEncoding || !e.hierGuardsOK(e.Main) {
			// This engine will not serve virtual triples: expand the
			// reduced closure into the store and drop the index.
			e.expandEncoding()
		}
	}
	return nil
}

// MemoryStats is where an engine's resident bytes are: the dictionary by
// part, and the property tables' pairs, asserted marks and ⟨o,s⟩ caches,
// summed and for the largest tables.
type MemoryStats struct {
	Dictionary dictionary.Footprint
	// Tables counts the non-empty property tables and Pairs their stored
	// pairs; the three byte counts sum their parts over all of them.
	Tables       int
	Pairs        int
	PairBytes    int
	MarkBytes    int
	OSCacheBytes int
	// Top lists the largest tables by stored pairs, largest first.
	Top []TableMemory
}

// TableMemory is one property table's share of MemoryStats.
type TableMemory struct {
	Property     string // the property's surface form
	Pairs        int
	PairBytes    int
	MarkBytes    int
	OSCacheBytes int
}

// MemoryStats reports where the engine's resident bytes are, listing
// the top largest tables. The caller must keep writers out (a read lock
// suffices).
func (e *Engine) MemoryStats(top int) MemoryStats {
	ms := MemoryStats{Dictionary: e.Dict.Footprint()}
	var all []TableMemory
	e.Main.ForEachTable(func(pidx int, t *store.Table) bool {
		tm := TableMemory{Property: e.Dict.MustDecode(dictionary.PropID(pidx)), Pairs: t.Size()}
		tm.PairBytes, tm.MarkBytes, tm.OSCacheBytes = t.Footprint()
		ms.Tables++
		ms.Pairs += tm.Pairs
		ms.PairBytes += tm.PairBytes
		ms.MarkBytes += tm.MarkBytes
		ms.OSCacheBytes += tm.OSCacheBytes
		all = append(all, tm)
		return true
	})
	slices.SortStableFunc(all, func(a, b TableMemory) int { return b.Pairs - a.Pairs })
	ms.Top = all[:min(max(top, 0), len(all))]
	return ms
}

// Size returns the current number of visible triples (staged triples
// not yet materialized are excluded). With the hierarchy encoding
// active this counts the stored triples plus the virtual subsumption
// and type triples — the same number a full materialization stores.
func (e *Engine) Size() int {
	hv := e.HierView()
	if hv == nil {
		return e.Main.Size()
	}
	vSC, vSP, vType := hv.VirtualCounts()
	return e.Main.Size() + vSC + vSP + vType
}

// StoredSize returns the number of physically stored triples, excluding
// the virtual triples of the hierarchy encoding. Checkpoints persist
// exactly this many triples.
func (e *Engine) StoredSize() int { return e.Main.Size() }

// HierView returns the visible-triple view of the active hierarchy
// encoding, or nil when the encoding is off, bypassed, or not yet
// built. Callers holding an interface must nil-check before assigning.
func (e *Engine) HierView() *hierarchy.View {
	if e.hier == nil {
		return nil
	}
	return &hierarchy.View{St: e.Main, Idx: e.hier}
}

// Triples streams every visible triple in decoded surface form; fn may
// return false to stop early. Call after Materialize for the closure,
// or before for the input. With the hierarchy encoding active the
// virtual subsumption/type triples are interleaved in sorted position,
// so the stream is identical to a full materialization's.
func (e *Engine) Triples(fn func(t rdf.Triple) bool) {
	d := e.Dict
	decode := func(pidx int, s, o uint64) bool {
		return fn(rdf.Triple{
			S: d.MustDecode(s),
			P: d.MustDecode(dictionary.PropID(pidx)),
			O: d.MustDecode(o),
		})
	}
	hv := e.HierView()
	if hv == nil {
		e.Main.ForEach(decode)
		return
	}
	// A virtual table is empty exactly when its stored table is empty, so
	// sweeping the stored tables misses nothing.
	e.Main.ForEachTable(func(pidx int, t *store.Table) bool {
		if t.Empty() {
			return true
		}
		if hv.VirtualPidx(pidx) {
			return hv.ScanAll(pidx, false, func(s, o uint64) bool {
				return decode(pidx, s, o)
			})
		}
		pairs := t.Pairs()
		for i := 0; i < len(pairs); i += 2 {
			if !decode(pidx, pairs[i], pairs[i+1]) {
				return false
			}
		}
		return true
	})
}

// Contains reports whether the given (surface form) triple is visible.
// All three terms must already be known to the dictionary.
func (e *Engine) Contains(t rdf.Triple) bool {
	pidx, s, o, ok := e.resolve(t)
	if !ok {
		return false
	}
	if hv := e.HierView(); hv != nil {
		return hv.Contains(pidx, s, o)
	}
	return e.Main.Contains(pidx, s, o)
}

// resolve looks a surface-form triple up in the dictionary. ok is false
// when a term is unknown or the predicate is not a property: such a
// triple cannot name anything stored.
func (e *Engine) resolve(t rdf.Triple) (pidx int, s, o uint64, ok bool) {
	p, okP := e.Dict.Lookup(t.P)
	s, okS := e.Dict.Lookup(t.S)
	o, okO := e.Dict.Lookup(t.O)
	return dictionary.PropIndex(p), s, o, okP && okS && okO && dictionary.IsProperty(p)
}

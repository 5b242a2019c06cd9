package reasoner

import (
	"time"

	"inferray/internal/metrics"
	"inferray/internal/store"
)

// Metrics is the reasoner's instrument set. Hang one on
// Options.Metrics to have every Materialize and Retract feed it; a nil
// Metrics leaves the engine uninstrumented. Per-rule counters are
// pre-resolved into index-aligned slices at engine construction, so
// the fixpoint loop pays one atomic add per rule per iteration and no
// map lookups.
type Metrics struct {
	// Materializations counts Materialize calls (full and incremental).
	Materializations *metrics.Counter
	// MaterializeSeconds observes each materialization's wall time.
	MaterializeSeconds *metrics.Histogram
	// Rounds counts fixpoint iterations across all materializations.
	Rounds *metrics.Counter
	// InferredTriples counts closure growth beyond the input triples.
	InferredTriples *metrics.Counter
	// RuleFired / RuleSkipped partition the fixpoint's scheduling
	// decisions by rule name: fired = the rule's read footprint met the
	// round's delta, skipped = it could derive nothing.
	RuleFired   *metrics.CounterVec
	RuleSkipped *metrics.CounterVec
	// RuleSeconds / RulePairs accumulate, by rule name, the time every
	// application of the rule ran and the pairs it emitted before the
	// merge dedups them — fixpoint, overdeletion and rederivation alike.
	RuleSeconds *metrics.CounterVec
	RulePairs   *metrics.CounterVec
	// PhaseSeconds accumulates wall time by pipeline phase — parse,
	// encode, normalize, closure, loop, count — so "where did the time
	// go" reads off /metrics. The engine feeds the phases it runs; the
	// layer that parses feeds "parse" through ObservePhase.
	PhaseSeconds *metrics.CounterVec
	// LoopSeconds splits the loop phase by what a round spends it on:
	// rules (selecting and firing), merge (store.MergeRound), maintain
	// (θ closing, hierarchy index rebuild, guards, type compaction).
	LoopSeconds *metrics.CounterVec
	// RoundPairs sizes the fixpoint's rounds: emitted = the pairs the
	// fired rules handed to the merge, kept = the new triples it found
	// among them.
	RoundPairs *metrics.CounterVec
	// Retractions counts Retract calls; OverdeletedTriples and
	// RederivedTriples size the two DRed phases, and RetractSeconds
	// observes total retraction wall time.
	Retractions        *metrics.Counter
	RetractSeconds     *metrics.Histogram
	OverdeletedTriples *metrics.Counter
	RederivedTriples   *metrics.Counter
	// RederivePairs sizes retraction's rederivation pass: seeds = the
	// stored pairs it ran from as its delta, emitted = the pairs its rules
	// produced, kept = the distinct ones that could be new to the store
	// and went into the merge.
	RederivePairs *metrics.CounterVec
	// Store is the main store's own instrument set (merge paths, ⟨o,s⟩
	// cache events); the engine attaches it to every store it makes Main.
	Store *store.Metrics
}

// NewMetrics registers the reasoner families into reg and returns the
// instrument set to hang on Options.Metrics.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		Materializations: reg.Counter("inferray_reasoner_materializations_total",
			"Materialize calls, full and incremental."),
		MaterializeSeconds: reg.Histogram("inferray_reasoner_materialize_seconds",
			"Wall time of each materialization (fixpoint plus pre-loop closures).",
			metrics.DurationBuckets()),
		Rounds: reg.Counter("inferray_reasoner_rounds_total",
			"Fixpoint iterations across all materializations."),
		InferredTriples: reg.Counter("inferray_reasoner_inferred_triples_total",
			"Triples added to the visible closure beyond the loaded input."),
		RuleFired: reg.CounterVec("inferray_reasoner_rule_fired_total",
			"Fixpoint rule firings by rule name (read footprint met the round's delta).",
			"rule"),
		RuleSkipped: reg.CounterVec("inferray_reasoner_rule_skipped_total",
			"Rules the fixpoint scheduler skipped, by rule name.",
			"rule"),
		RuleSeconds: reg.SecondsCounterVec("inferray_reasoner_rule_seconds_total",
			"Time spent applying each rule: fixpoint, overdeletion and rederivation passes.",
			"rule"),
		RulePairs: reg.CounterVec("inferray_reasoner_rule_pairs_total",
			"Pairs each rule emitted, before the merge round dedups them.",
			"rule"),
		PhaseSeconds: reg.SecondsCounterVec("inferray_reasoner_phase_seconds_total",
			"Wall time from bytes-in to closure by phase: parse, encode (intern, dictionary merge, table fill), normalize, closure (pre-loop transitive closures), loop (fixpoint), count (sizing the visible closure).",
			"phase"),
		LoopSeconds: reg.SecondsCounterVec("inferray_reasoner_loop_seconds_total",
			"The loop phase by part: rules (selecting and firing), merge (sort, dedup and merge of the rule outputs), maintain (closing the θ tables the round touched, hierarchy index rebuild, guards, type compaction).",
			"part"),
		RoundPairs: reg.CounterVec("inferray_reasoner_round_pairs_total",
			"Fixpoint rounds: pairs the fired rules emitted into the merge, and the new triples the merge kept of them.",
			"kind"),
		Retractions: reg.Counter("inferray_reasoner_retractions_total",
			"Retract calls (DRed overdelete + rederive runs)."),
		RetractSeconds: reg.Histogram("inferray_reasoner_retract_seconds",
			"Wall time of each retraction.", metrics.DurationBuckets()),
		OverdeletedTriples: reg.Counter("inferray_reasoner_overdeleted_triples_total",
			"Triples removed by DRed overdeletion (including casualties later rederived)."),
		RederivedTriples: reg.Counter("inferray_reasoner_rederived_triples_total",
			"Overdeletion casualties restored by the rederivation fixpoint."),
		RederivePairs: reg.CounterVec("inferray_reasoner_rederive_pairs_total",
			"Retraction's rederivation pass: the stored pairs it started from (seeds), pairs its rules emitted, and the distinct pairs kept for the merge because they could be new to the store.",
			"kind"),
		Store: store.NewMetrics(reg),
	}
}

// resolveRuleCounters pre-resolves the per-rule counters into slices
// aligned with e.rules, so the loop's bookkeeping is an indexed atomic
// add.
func (e *Engine) resolveRuleCounters() {
	m := e.opts.Metrics
	if m == nil {
		return
	}
	for _, r := range e.rules {
		e.mFired = append(e.mFired, m.RuleFired.With(r.Name))
		e.mSkipped = append(e.mSkipped, m.RuleSkipped.With(r.Name))
		e.mSeconds = append(e.mSeconds, m.RuleSeconds.With(r.Name))
		e.mPairs = append(e.mPairs, m.RulePairs.With(r.Name))
	}
}

// ObservePhase adds d to one phase of PhaseSeconds. Safe on a nil
// Metrics.
func (m *Metrics) ObservePhase(phase string, d time.Duration) {
	if m != nil {
		m.PhaseSeconds.With(phase).Add(uint64(d))
	}
}

// recordMaterialize feeds one finished materialization into the
// instrument set.
func (e *Engine) recordMaterialize(st *Stats) {
	m := e.opts.Metrics
	if m == nil {
		return
	}
	m.ObservePhase("encode", st.EncodeTime)
	m.ObservePhase("normalize", st.NormalizeTime)
	m.ObservePhase("closure", st.ClosureTime)
	m.ObservePhase("loop", st.LoopTime)
	m.ObservePhase("count", st.CountTime)
	var rules, merge, maintain time.Duration
	var emitted, kept int
	for _, r := range st.Rounds {
		rules, merge, maintain = rules+r.RulesTime, merge+r.MergeTime, maintain+r.MaintainTime
		emitted, kept = emitted+r.Emitted, kept+r.NewTriples
	}
	m.LoopSeconds.With("rules").Add(uint64(rules))
	m.LoopSeconds.With("merge").Add(uint64(merge))
	m.LoopSeconds.With("maintain").Add(uint64(maintain))
	m.RoundPairs.With("emitted").Add(uint64(emitted))
	m.RoundPairs.With("kept").Add(uint64(kept))
	m.Materializations.Inc()
	m.MaterializeSeconds.ObserveDuration(st.TotalTime)
	m.Rounds.Add(uint64(st.Iterations))
	if st.InferredTriples > 0 {
		m.InferredTriples.Add(uint64(st.InferredTriples))
	}
}

// recordRetract feeds one finished retraction into the instrument set.
func (e *Engine) recordRetract(st *RetractStats) {
	m := e.opts.Metrics
	if m == nil {
		return
	}
	m.Retractions.Inc()
	m.RetractSeconds.ObserveDuration(st.TotalTime)
	m.OverdeletedTriples.Add(uint64(st.Overdeleted))
	m.RederivedTriples.Add(uint64(st.Rederived))
	m.RederivePairs.With("seeds").Add(uint64(st.RederiveSeeds))
	m.RederivePairs.With("emitted").Add(uint64(st.RederiveEmitted))
	m.RederivePairs.With("kept").Add(uint64(st.RederiveKept))
}

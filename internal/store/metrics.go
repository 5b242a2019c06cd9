package store

import "inferray/internal/metrics"

// Metrics counts what the store does to keep its tables sorted, so that
// "a write costs O(delta)" can be read off /metrics: single-triple
// writes should move path="splice" and event="patched" and leave
// path="rebuild" and event="dropped" to tables shorter than the size
// rule (spliceFactor pairs per changed pair).
type Metrics struct {
	// Merges counts table merges of MergeRound by the path they took:
	// splice (in place) or rebuild (allocate main + delta and merge).
	Merges *metrics.CounterVec
	// OSCache counts ⟨o,s⟩-cache events: built (a lazy OS() sort),
	// patched (a small change applied to it in place), dropped (a present
	// cache cleared by a change).
	OSCache *metrics.CounterVec

	events [numEvents]*metrics.Counter
}

type event int

const (
	mergeSplice event = iota
	mergeRebuild
	osBuilt
	osPatched
	osDropped
	numEvents
)

// NewMetrics registers the store families into reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	m := &Metrics{
		Merges: reg.CounterVec("inferray_store_merges_total",
			"Property-table merges by path: splice (k fresh pairs placed in place, O(k log n + tail)) or rebuild (main + delta reallocated and merged).",
			"path"),
		OSCache: reg.CounterVec("inferray_store_os_cache_total",
			"Object-sorted cache events: built (lazy sort of a whole table), patched (a small change applied in place), dropped (cleared by a bulk change).",
			"event"),
	}
	m.events = [numEvents]*metrics.Counter{
		mergeSplice:  m.Merges.With("splice"),
		mergeRebuild: m.Merges.With("rebuild"),
		osBuilt:      m.OSCache.With("built"),
		osPatched:    m.OSCache.With("patched"),
		osDropped:    m.OSCache.With("dropped"),
	}
	return m
}

// count records one event; safe on a nil store or one without metrics.
func (st *Store) count(ev event) {
	if st != nil && st.m != nil {
		st.m.events[ev].Inc()
	}
}

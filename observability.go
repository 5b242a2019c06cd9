package inferray

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"inferray/internal/metrics"
	"inferray/internal/query"
	"inferray/internal/reasoner"
	"inferray/internal/sparql"
	"inferray/internal/wal"
)

// WithSlowQueryLog enables structured slow-query logging: every SPARQL
// evaluation (Select, SelectWithVars, Ask, ExecFunc, and the HTTP
// /query endpoint) that takes at least threshold emits one structured
// record — the query text, the planner's chosen pattern order, the
// delivered row count, and the duration, plus the request ID when the
// evaluation ran under Exec with one in the context and the error when
// its context aborted it. logger nil uses slog.Default(). A threshold
// of 0 disables logging (the default).
func WithSlowQueryLog(threshold time.Duration, logger *slog.Logger) Option {
	return func(c *config) {
		c.slowQuery = threshold
		c.slowLog = logger
	}
}

// obs is the Reasoner's instrumentation state: the metric registry the
// layers register into, the per-layer instrument handles the snapshot
// API reads back, and the slow-query log configuration.
type obs struct {
	reg *metrics.Registry
	rm  *reasoner.Metrics
	wm  *wal.Metrics
	qm  *query.Metrics

	queries      *metrics.Counter
	queryRows    *metrics.Counter
	querySeconds *metrics.Histogram
	slowQueries  *metrics.Counter

	// The two sides of r.mu: how long apply held it for writing, and how
	// long an evaluation waited to share it. A read tail far above the
	// read median is attributed by comparing them (EXPERIMENTS.md).
	writeHold *metrics.Histogram
	readWait  *metrics.Histogram

	slowThreshold time.Duration
	slowLog       *slog.Logger
}

// newObs builds the registry and registers every family the reasoner
// owns: reasoner, durability, and query-engine layers plus the
// evaluation-level query counters, build info and the Go runtime's
// gauges. The reasoner.Metrics
// handle is returned through c.engine for the engine constructor.
func newObs(c *config) *obs {
	reg := metrics.NewRegistry()
	o := &obs{
		reg: reg,
		rm:  reasoner.NewMetrics(reg),
		wm:  wal.NewMetrics(reg),
		qm:  query.NewMetrics(reg),
		queries: reg.Counter("inferray_query_evaluations_total",
			"SPARQL evaluations completed or aborted by their context (Select, Ask, Exec, HTTP /query)."),
		queryRows: reg.Counter("inferray_query_rows_total",
			"Solution rows delivered to callers, after projection, DISTINCT, OFFSET, and LIMIT."),
		querySeconds: reg.Histogram("inferray_query_seconds",
			"Wall time of each SPARQL evaluation, parse included.",
			metrics.DurationBuckets()),
		slowQueries: reg.Counter("inferray_slow_queries_total",
			"Evaluations at or above the slow-query threshold (0 when logging is disabled)."),
		writeHold: reg.Histogram("inferray_write_lock_hold_seconds",
			"How long each mutation held the engine's write lock: log append, merge or retraction, generation bump.",
			metrics.DurationBuckets()),
		readWait: reg.Histogram("inferray_read_lock_wait_seconds",
			"How long each query evaluation waited for the engine's shared lock, i.e. behind a write in progress.",
			metrics.DurationBuckets()),
		slowThreshold: c.slowQuery,
		slowLog:       c.slowLog,
	}
	if o.slowLog == nil {
		o.slowLog = slog.Default()
	}
	version, goVersion := Version()
	reg.GaugeFunc("inferray_build_info",
		"Build metadata; the value is always 1 and the information is in the labels.",
		func() float64 { return 1 },
		"version", version, "goversion", goVersion,
		"fragment", c.engine.Fragment.String())
	registerRuntime(reg)
	c.engine.Metrics = o.rm
	return o
}

// registerRuntime adds the Go runtime's own numbers, read at scrape
// time: the heap in use and the part of it the last collection found
// live, how many collections ran and how long they stopped the program,
// and how many goroutines exist. They are how an operator sees resident
// bytes move without a profiler.
func registerRuntime(reg *metrics.Registry) {
	sum := func(names ...string) float64 {
		samples := make([]rtmetrics.Sample, len(names))
		for i, name := range names {
			samples[i].Name = name
		}
		rtmetrics.Read(samples)
		total := 0.0
		for _, s := range samples {
			if s.Value.Kind() == rtmetrics.KindUint64 {
				total += float64(s.Value.Uint64())
			}
		}
		return total
	}
	reg.GaugeFunc("inferray_go_heap_inuse_bytes",
		"Bytes of heap spans holding objects, free slots in them included (runtime.MemStats.HeapInuse).",
		func() float64 { return sum("/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes") })
	reg.GaugeFunc("inferray_go_heap_live_bytes",
		"Heap bytes the last garbage collection marked live.",
		func() float64 { return sum("/gc/heap/live:bytes") })
	reg.CounterFunc("inferray_go_gc_cycles_total",
		"Completed garbage-collection cycles.",
		func() float64 { return sum("/gc/cycles/total:gc-cycles") })
	reg.CounterFunc("inferray_go_gc_pause_seconds_total",
		"Stop-the-world pause time of every garbage collection, summed.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.PauseTotalNs) / 1e9
		})
	reg.GaugeFunc("inferray_go_goroutines",
		"Goroutines that currently exist.",
		func() float64 { return float64(runtime.NumGoroutine()) })
}

// WriteMetrics renders every metric family the reasoner owns —
// reasoner, durability, query engine, evaluation counters, build info,
// and the Go runtime's heap, collection and goroutine gauges — in the
// Prometheus text exposition format. The server's GET
// /metrics endpoint is this plus its own HTTP families; embedders
// without HTTP can expose or log the same numbers directly.
func (r *Reasoner) WriteMetrics(w io.Writer) error {
	return r.obs.reg.WritePrometheus(w)
}

// MetricsSnapshot is a point-in-time copy of the reasoner's cumulative
// instrumentation, for embedders that want the numbers without
// Prometheus. All counters are totals since the Reasoner was created.
type MetricsSnapshot struct {
	// Materializations counts Materialize calls; FixpointRounds their
	// fixpoint iterations; MaterializeSeconds the summed wall time; and
	// InferredTriples the closure growth beyond loaded input.
	Materializations   uint64
	FixpointRounds     uint64
	MaterializeSeconds float64
	InferredTriples    uint64
	// RuleFired / RuleSkipped break scheduling decisions down by rule
	// name (nil until a materialization ran).
	RuleFired   map[string]uint64
	RuleSkipped map[string]uint64
	// Retraction totals: calls, DRed overdeletion casualties, and
	// rederived survivors.
	Retractions        uint64
	OverdeletedTriples uint64
	RederivedTriples   uint64
	// The rederivation pass of those retractions: the stored pairs it
	// started from, pairs its rules emitted, and the distinct ones kept
	// for the merge because they could be new to the store.
	RederiveSeeds   uint64
	RederiveEmitted uint64
	RederiveKept    uint64
	// How the store kept its tables sorted: merges that spliced a small
	// delta in place against merges that rebuilt the table, and what
	// happened to the object-sorted caches (built by a lazy sort, patched
	// in place by a splice, dropped by a rebuild).
	MergesSplice   uint64
	MergesRebuild  uint64
	OSCacheBuilt   uint64
	OSCachePatched uint64
	OSCacheDropped uint64
	// Durability totals; zero on in-memory reasoners.
	WALAppends     uint64
	WALAppendBytes uint64
	WALFsyncs      uint64
	Checkpoints    uint64
	SnapshotBytes  int64
	// Pattern-engine totals: solves and rows streamed out of the engine
	// before solution modifiers.
	PlannedSolves uint64
	EngineRows    uint64
	// Evaluation totals: completed SPARQL evaluations, rows delivered
	// after modifiers, summed evaluation seconds, and evaluations at or
	// above the slow-query threshold.
	Queries      uint64
	QueryRows    uint64
	QuerySeconds float64
	SlowQueries  uint64
}

// Metrics snapshots the reasoner's cumulative instrumentation.
func (r *Reasoner) Metrics() MetricsSnapshot {
	o := r.obs
	s := MetricsSnapshot{
		Materializations:   o.rm.Materializations.Value(),
		FixpointRounds:     o.rm.Rounds.Value(),
		MaterializeSeconds: o.rm.MaterializeSeconds.Sum(),
		InferredTriples:    o.rm.InferredTriples.Value(),
		Retractions:        o.rm.Retractions.Value(),
		OverdeletedTriples: o.rm.OverdeletedTriples.Value(),
		RederivedTriples:   o.rm.RederivedTriples.Value(),
		RederiveSeeds:      o.rm.RederivePairs.With("seeds").Value(),
		RederiveEmitted:    o.rm.RederivePairs.With("emitted").Value(),
		RederiveKept:       o.rm.RederivePairs.With("kept").Value(),
		MergesSplice:       o.rm.Store.Merges.With("splice").Value(),
		MergesRebuild:      o.rm.Store.Merges.With("rebuild").Value(),
		OSCacheBuilt:       o.rm.Store.OSCache.With("built").Value(),
		OSCachePatched:     o.rm.Store.OSCache.With("patched").Value(),
		OSCacheDropped:     o.rm.Store.OSCache.With("dropped").Value(),
		WALAppends:         o.wm.Appends.Value(),
		WALAppendBytes:     o.wm.AppendBytes.Value(),
		WALFsyncs:          o.wm.Fsyncs.Value(),
		Checkpoints:        o.wm.Checkpoints.Value(),
		SnapshotBytes:      o.wm.SnapshotBytes.Value(),
		PlannedSolves:      o.qm.PlannedSolves.Value(),
		EngineRows:         o.qm.Rows.Value(),
		Queries:            o.queries.Value(),
		QueryRows:          o.queryRows.Value(),
		QuerySeconds:       o.querySeconds.Sum(),
		SlowQueries:        o.slowQueries.Value(),
	}
	o.rm.RuleFired.Each(func(values []string, c *metrics.Counter) {
		if s.RuleFired == nil {
			s.RuleFired = make(map[string]uint64)
		}
		s.RuleFired[values[0]] = c.Value()
	})
	o.rm.RuleSkipped.Each(func(values []string, c *metrics.Counter) {
		if s.RuleSkipped == nil {
			s.RuleSkipped = make(map[string]uint64)
		}
		s.RuleSkipped[values[0]] = c.Value()
	})
	return s
}

// MemoryStats is where a reasoner's resident bytes are: the dictionary's
// terms and its term, arena, ref and index bytes; the pair, asserted-mark
// and ⟨o,s⟩-cache bytes summed over the property tables; and the largest
// tables with the same split.
type MemoryStats = reasoner.MemoryStats

// MemoryStats reports where the reasoner's resident bytes are, listing
// the top largest property tables by stored pairs. It shares the read
// lock with queries.
func (r *Reasoner) MemoryStats(top int) MemoryStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.engine.MemoryStats(top)
}

// readLock takes r.mu for reading on behalf of a query evaluation and
// records how long that took. The caller unlocks.
func (r *Reasoner) readLock() {
	start := time.Now()
	r.mu.RLock()
	r.obs.readWait.ObserveDuration(time.Since(start))
}

// queryEngine builds a pattern engine over the current closure with the
// hierarchy view and the instrument set attached. Callers hold r.mu.
func (r *Reasoner) queryEngine() *query.Engine {
	eng := &query.Engine{St: r.engine.Main, Metrics: r.obs.qm}
	if hv := r.engine.HierView(); hv != nil {
		eng.Virtual = hv
	}
	return eng
}

// recordQueryLocked feeds one evaluation — completed, or aborted by its
// context (err), which is how the slowest queries end — into the
// counters and, when it crossed the slow-query threshold, emits the
// structured slow-query record. Called at the tail of exec with the
// read lock still held (the plan description re-runs the planner).
func (r *Reasoner) recordQueryLocked(ctx context.Context, queryText string, q *sparql.Query, varSlots map[string]int, rows int, d time.Duration, err error) {
	o := r.obs
	o.queries.Inc()
	o.queryRows.Add(uint64(rows))
	o.querySeconds.ObserveDuration(d)
	if o.slowThreshold <= 0 || d < o.slowThreshold {
		return
	}
	o.slowQueries.Inc()
	attrs := []slog.Attr{
		slog.String("query", queryText),
		slog.String("plan", r.planDescriptionLocked(q, varSlots)),
		slog.Int("rows", rows),
		slog.Duration("duration", d),
		slog.Duration("threshold", o.slowThreshold),
	}
	if id := RequestIDFromContext(ctx); id != "" {
		attrs = append(attrs, slog.String("request_id", id))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	o.slowLog.LogAttrs(ctx, slog.LevelWarn, "slow query", attrs...)
}

// planDescriptionLocked renders the planner's chosen execution order
// for every UNION branch of q — the required patterns in the order the
// sort-merge engine will run them. Built only for slow-query records,
// under the read lock the evaluation already holds.
func (r *Reasoner) planDescriptionLocked(q *sparql.Query, varSlots map[string]int) string {
	var b strings.Builder
	for gi, g := range q.Groups {
		if gi > 0 {
			b.WriteString(" UNION ")
		}
		pats, ok := encodePatterns(r.engine.Dict, g.Patterns, varSlots)
		if !ok {
			b.WriteString("(empty: constant not in dictionary)")
			continue
		}
		if len(pats) == 0 {
			b.WriteString("(unit)")
			continue
		}
		order := r.queryEngine().Plan(pats)
		for i, idx := range order {
			if i > 0 {
				b.WriteString(" -> ")
			}
			p := g.Patterns[idx]
			fmt.Fprintf(&b, "{%s %s %s}", p[0], p[1], p[2])
		}
	}
	return b.String()
}

// ctxKeyRequestID keys the request ID in a context.
type ctxKeyRequestID struct{}

// ContextWithRequestID returns a context carrying a request ID. The
// HTTP server stamps every request's context so slow-query records can
// be joined back to access-log lines; embedders running evaluations
// through Exec can do the same.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyRequestID{}, id)
}

// RequestIDFromContext extracts the request ID, or "" when absent.
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID{}).(string)
	return id
}

package inferray_test

// Tests for the observability layer at the public API surface: the
// Prometheus exposition via WriteMetrics, the MetricsSnapshot API, the
// structured slow-query log, and the allocation budget of the
// instrumented query hot path.

import (
	"bytes"
	"context"
	"log/slog"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"inferray"
	"inferray/internal/datagen"
	"inferray/internal/dictionary"
	"inferray/internal/metrics"
	"inferray/internal/query"
)

// obsTestReasoner loads a small RDFS-Plus dataset and materializes it.
func obsTestReasoner(t *testing.T, opts ...inferray.Option) *inferray.Reasoner {
	t.Helper()
	r := inferray.New(append([]inferray.Option{inferray.WithFragment(inferray.RDFSPlus)}, opts...)...)
	base := `
<worksFor> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <memberOf> .
<alice> <worksFor> <DeptCS> .
<bob> <worksFor> <DeptCS> .
`
	if err := r.LoadNTriples(strings.NewReader(base)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMetricsSnapshot(t *testing.T) {
	r := obsTestReasoner(t)
	if _, err := r.Select(`SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`); err != nil {
		t.Fatal(err)
	}

	s := r.Metrics()
	if s.Materializations != 1 {
		t.Errorf("Materializations = %d, want 1", s.Materializations)
	}
	if s.FixpointRounds == 0 {
		t.Error("FixpointRounds = 0")
	}
	if s.InferredTriples == 0 {
		t.Error("InferredTriples = 0 (subPropertyOf should have inferred memberOf triples)")
	}
	if s.Queries != 1 {
		t.Errorf("Queries = %d, want 1", s.Queries)
	}
	if s.QueryRows != 2 {
		t.Errorf("QueryRows = %d, want 2", s.QueryRows)
	}
	if s.PlannedSolves == 0 {
		t.Error("PlannedSolves = 0")
	}
	if len(s.RuleFired) == 0 {
		t.Error("RuleFired is empty after a materialization")
	}
	fired := false
	for _, n := range s.RuleFired {
		if n > 0 {
			fired = true
		}
	}
	if !fired {
		t.Error("no rule recorded as fired")
	}
	// In-memory reasoner: the durability counters must stay zero.
	if s.WALAppends != 0 || s.Checkpoints != 0 {
		t.Errorf("durability counters nonzero in memory: appends=%d checkpoints=%d",
			s.WALAppends, s.Checkpoints)
	}
	if s.SlowQueries != 0 {
		t.Errorf("SlowQueries = %d with logging disabled", s.SlowQueries)
	}
}

func TestWriteMetricsExposition(t *testing.T) {
	// Sequential, so the per-rule seconds add up inside the loop phase.
	r := obsTestReasoner(t, inferray.WithParallelism(false))
	exposition := func() string {
		var buf bytes.Buffer
		if err := r.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := exposition()
	for _, want := range []string{
		"# TYPE inferray_reasoner_materializations_total counter",
		"# TYPE inferray_reasoner_materialize_seconds histogram",
		"# TYPE inferray_reasoner_rule_fired_total counter",
		"# TYPE inferray_reasoner_rule_seconds_total counter",
		"# TYPE inferray_reasoner_rule_pairs_total counter",
		"# TYPE inferray_reasoner_loop_seconds_total counter",
		`inferray_reasoner_phase_seconds_total{phase="count"}`,
		"# TYPE inferray_wal_fsync_seconds histogram",
		"# TYPE inferray_query_solves_total counter",
		"# TYPE inferray_query_seconds histogram",
		"# TYPE inferray_slow_queries_total counter",
		`inferray_build_info{version=`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every rule's application is timed where it fires, inside the loop.
	ruleSeconds := sumSamples(t, out, "inferray_reasoner_rule_seconds_total{")
	loop := sumSamples(t, out, `inferray_reasoner_phase_seconds_total{phase="loop"}`)
	if ruleSeconds <= 0 || ruleSeconds > loop {
		t.Errorf("rule seconds %g outside (0, loop phase %g]", ruleSeconds, loop)
	}
	// A round's time is rule firing, the merge, and hierarchy upkeep; the
	// three parts sit inside the loop phase too.
	parts := 0.0
	for _, part := range []string{"rules", "merge", "maintain"} {
		sample := `inferray_reasoner_loop_seconds_total{part="` + part + `"}`
		if !strings.Contains(out, sample) {
			t.Errorf("exposition missing %s", sample)
		}
		parts += sumSamples(t, out, sample)
	}
	if parts <= 0 || parts > loop {
		t.Errorf("loop parts %g outside (0, loop phase %g]", parts, loop)
	}
	const spo1 = `{rule="PRP-SPO1"}`
	firedBefore := sumSamples(t, out, "inferray_reasoner_rule_fired_total"+spo1)
	pairsBefore := sumSamples(t, out, "inferray_reasoner_rule_pairs_total"+spo1)
	if pairsBefore == 0 {
		t.Error("PRP-SPO1 derived the memberOf triples but reports no pairs")
	}

	// A retraction fires rules outside the fixpoint's scheduler: the
	// overdeletion pass runs PRP-SPO1 forward from the deleted triple,
	// which only the per-rule time and output counters see.
	if _, err := r.Update(`DELETE DATA { <alice> <worksFor> <DeptCS> }`); err != nil {
		t.Fatal(err)
	}
	out = exposition()
	if got := sumSamples(t, out, "inferray_reasoner_rule_fired_total"+spo1); got != firedBefore {
		t.Errorf("the DELETE moved PRP-SPO1's scheduler count %g → %g", firedBefore, got)
	}
	if got := sumSamples(t, out, "inferray_reasoner_rule_pairs_total"+spo1); got <= pairsBefore {
		t.Errorf("PRP-SPO1 pairs %g → %g across a DELETE that overdeletes through it", pairsBefore, got)
	}
	if got := sumSamples(t, out, "inferray_reasoner_rule_seconds_total{"); got <= ruleSeconds {
		t.Errorf("rule seconds %g → %g across a DELETE", ruleSeconds, got)
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

// sumSamples adds up the values of the exposition's sample lines that
// start with prefix.
func sumSamples(t *testing.T, exposition, prefix string) float64 {
	t.Helper()
	sum := 0.0
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

func TestSlowQueryLogFires(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	// A 1ns threshold makes every evaluation slow.
	r := obsTestReasoner(t, inferray.WithSlowQueryLog(time.Nanosecond, logger))

	ctx := inferray.ContextWithRequestID(context.Background(), "req-test-7")
	if _, err := r.Exec(ctx, `SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`, 0,
		nil, func(inferray.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	for _, want := range []string{
		`msg="slow query"`,
		"memberOf", // the query text
		"plan=",    // the planner's chosen order
		"rows=2",   // delivered rows
		"request_id=req-test-7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query record missing %q in:\n%s", want, out)
		}
	}
	if got := r.Metrics().SlowQueries; got != 1 {
		t.Errorf("SlowQueries = %d, want 1", got)
	}
}

func TestSlowQueryLogQuietBelowThreshold(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	r := obsTestReasoner(t, inferray.WithSlowQueryLog(time.Hour, logger))
	if _, err := r.Select(`SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("unexpected log output below threshold:\n%s", buf.String())
	}
	if got := r.Metrics().SlowQueries; got != 0 {
		t.Errorf("SlowQueries = %d, want 0", got)
	}
}

// TestPlainBGPAllocBudget pins the allocation budget of the plain-BGP
// hot path with instrumentation attached: one exec struct, one row
// slice, and the planner's three small slices — five allocations per
// Solve, metrics or not. The CI bench-smoke job runs this as a
// regression gate.
func TestPlainBGPAllocBudget(t *testing.T) {
	st := selectBenchStore(10_000, 10_000, 10_000)
	reg := metrics.NewRegistry()
	e := &query.Engine{St: st, Metrics: query.NewMetrics(reg)}
	pid := func(i int) uint64 { return dictionary.PropID(i) }
	patterns := []query.Pattern{
		{S: query.Var(0), P: query.Const(pid(0)), O: query.Var(1)},
		{S: query.Var(1), P: query.Const(pid(1)), O: query.Var(2)},
		{S: query.Var(2), P: query.Const(pid(2)), O: query.Var(3)},
	}
	sink := func([]uint64) bool { return true }
	got := testing.AllocsPerRun(50, func() {
		if err := e.Solve(patterns, 4, sink); err != nil {
			t.Fatal(err)
		}
	})
	if got > 5 {
		t.Fatalf("plain-BGP Solve = %.0f allocs/op with metrics enabled, budget is 5", got)
	}
}

// scanTestReasoner holds n <s_i> <p> <o_i> triples and little else: a
// store large enough that enumerating it shows in the engine counters.
func scanTestReasoner(t testing.TB, n int, opts ...inferray.Option) *inferray.Reasoner {
	t.Helper()
	r := inferray.New(append([]inferray.Option{inferray.WithFragment(inferray.RDFSDefault)}, opts...)...)
	triples := make([]inferray.Triple, n)
	for i := range triples {
		triples[i] = inferray.Triple{S: "<s" + strconv.Itoa(i) + ">", P: "<p>", O: "<o" + strconv.Itoa(i%97) + ">"}
	}
	r.AddTriples(triples)
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	return r
}

// A query of the wrong form is refused when it is parsed: Ask on a
// SELECT and Select on an ASK used to evaluate the whole query under
// the read lock and only then report the mismatch.
func TestWrongFormRejectedBeforeEvaluation(t *testing.T) {
	r := scanTestReasoner(t, 20_000)
	before := r.Metrics()
	if _, err := r.Ask(`SELECT ?s WHERE { ?s ?p ?o }`); err == nil || !strings.Contains(err.Error(), "use Select") {
		t.Fatalf("Ask on a SELECT: %v", err)
	}
	if _, err := r.Select(`ASK { ?s ?p ?o }`); err == nil || !strings.Contains(err.Error(), "use Ask") {
		t.Fatalf("Select on an ASK: %v", err)
	}
	if _, _, err := r.SelectWithVars(`ASK { ?s ?p ?o }`); err == nil || !strings.Contains(err.Error(), "use Ask") {
		t.Fatalf("SelectWithVars on an ASK: %v", err)
	}
	after := r.Metrics()
	if after.PlannedSolves != before.PlannedSolves || after.EngineRows != before.EngineRows ||
		after.Queries != before.Queries || after.QueryRows != before.QueryRows {
		t.Fatalf("a refused query reached the engine: before %+v, after %+v", before, after)
	}
}

// flipContext is cancelable and reports cancellation from its n-th
// Err call on — a deadline that trips mid-evaluation, deterministically.
type flipContext struct {
	context.Context
	calls, flipAt int
	done          chan struct{}
}

func (c *flipContext) Done() <-chan struct{} { return c.done }

func (c *flipContext) Err() error {
	if c.calls++; c.calls >= c.flipAt {
		return context.Canceled
	}
	return nil
}

// The context is polled at the head of the stage chain, so a scan whose
// FILTER rejects every row — no row ever reaches the sink — is still
// interrupted; and the aborted evaluation is counted, timed and logged
// like any other (the slowest queries a server sees end this way).
func TestCanceledScanAbortsAndIsRecorded(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	const n = 20_000
	r := scanTestReasoner(t, n, inferray.WithSlowQueryLog(time.Nanosecond, logger))

	// Err call 1 is the check before evaluation; call 3 is engine row 512.
	ctx := &flipContext{Context: inferray.ContextWithRequestID(context.Background(), "req-abort"), flipAt: 3, done: make(chan struct{})}
	before := r.Metrics()
	delivered := 0
	_, err := r.Exec(ctx, `SELECT ?s WHERE { ?s ?p ?o FILTER(?s = <nothing>) }`, 0, nil,
		func(inferray.Row) bool { delivered++; return true })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	after := r.Metrics()
	if rows := after.EngineRows - before.EngineRows; delivered != 0 || rows != 512 {
		t.Fatalf("engine produced %d of %d rows before the abort (want 512), %d delivered", rows, n, delivered)
	}
	if after.Queries != before.Queries+1 {
		t.Errorf("Queries = %d, want %d: the aborted evaluation was not counted", after.Queries, before.Queries+1)
	}
	if after.QuerySeconds <= before.QuerySeconds {
		t.Error("the aborted evaluation is missing from inferray_query_seconds")
	}
	out := buf.String()
	for _, want := range []string{`msg="slow query"`, `error="context canceled"`, "request_id=req-abort", "rows=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query record missing %q in:\n%s", want, out)
		}
	}
}

// rowlessJoin matches nothing on LUBM — a course is the subject of no
// triple naming a student — but only after probing every table for
// every ⟨student, course⟩ pair: a walk that never hands the chain a row.
const rowlessJoin = `SELECT ?s WHERE { ?s <http://example.org/lubm/takesCourse> ?c . ?c ?p ?s }`

// A deadline reaches a walk that produces no rows: the engine polls the
// context among its candidates, not only the chain among its rows.
func TestRowlessJoinIsCanceled(t *testing.T) {
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	r.AddTriples(datagen.LUBM(40_000, 1)) // ≈5,000 takesCourse pairs: one engine poll
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	// Err call 1 is the check before evaluation; call 2 the engine's first
	// poll, after 4,096 candidates.
	ctx := &flipContext{Context: context.Background(), flipAt: 2, done: make(chan struct{})}
	before := r.Metrics()
	res, err := r.Exec(ctx, rowlessJoin, 0, nil, func(inferray.Row) bool { return true })
	if err != context.Canceled {
		t.Fatalf("err = %v (result %+v), want context.Canceled", err, res)
	}
	if rows := r.Metrics().EngineRows - before.EngineRows; rows != 0 || ctx.calls != 2 {
		t.Fatalf("%d engine rows, %d context polls; want 0 rows, 2 polls", rows, ctx.calls)
	}
	delivered := 0
	if _, err := r.Exec(context.Background(), rowlessJoin, 0, nil, func(inferray.Row) bool { delivered++; return true }); err != nil || delivered != 0 {
		t.Fatalf("uncanceled: %d rows, %v; want none", delivered, err)
	}
}

// TestExecAllocBudget pins the allocation budget of the read path above
// the engine: a ?s rdf:type C scan through Exec allocates a fixed
// number of objects per query — parse, compile, plan, the chain — and
// nothing per row, and the map-returning adapter adds exactly the one
// map it hands over. The CI bench-smoke job runs this beside
// TestPlainBGPAllocBudget.
func TestExecAllocBudget(t *testing.T) {
	const n = 5_000
	r := inferray.New(inferray.WithFragment(inferray.RDFSDefault))
	triples := make([]inferray.Triple, n)
	for i := range triples {
		triples[i] = inferray.Triple{S: "<s" + strconv.Itoa(i) + ">", P: "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>", O: "<C>"}
	}
	r.AddTriples(triples)
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	const text = `SELECT ?s WHERE { ?s a <C> }`
	// Measure with the collector off: a collection inside a run wakes the
	// runtime's own cleanups (the unique package's, once net is linked
	// into the test binary), and their allocations would count as the
	// query's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	rows, size := 0, 0
	slotRows := testing.AllocsPerRun(10, func() {
		rows = 0
		if _, err := r.Exec(context.Background(), text, 0, nil, func(row inferray.Row) bool {
			term, _ := row.Term(0)
			size += len(term)
			rows++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	})
	if rows != n {
		t.Fatalf("%d rows, want %d", rows, n)
	}
	if perRow := slotRows / n; perRow >= 1 {
		t.Fatalf("Exec = %.0f allocs for %d rows (%.2f per row), budget is < 1 per row", slotRows, n, perRow)
	}
	if slotRows > 100 {
		t.Fatalf("Exec = %.0f allocs per query; the chain should need a fixed few dozen", slotRows)
	}

	var sink map[string]string
	oneMap := testing.AllocsPerRun(100, func() { sink = map[string]string{"s": text} })
	mapRows := testing.AllocsPerRun(10, func() {
		if _, err := r.ExecFunc(text, 0, nil, func(row map[string]string) bool {
			sink = row
			return true
		}); err != nil {
			t.Fatal(err)
		}
	})
	// The adapter's own closure is the only per-query extra.
	if extra := (mapRows - slotRows - 1) / n; extra > oneMap {
		t.Fatalf("ExecFunc = %.3f allocs per row over Exec, one map is %.0f", extra, oneMap)
	}
	t.Logf("Exec %.0f allocs/query for %d rows; ExecFunc %.0f; one map %.0f", slotRows, n, mapRows, oneMap)
	_ = sink
}

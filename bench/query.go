package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inferray"
	"inferray/internal/datagen"
	"inferray/internal/query"
	"inferray/internal/rdf"
	"inferray/internal/reasoner"
	"inferray/internal/server"
	"inferray/internal/sparql"
)

// queryClass is one shape of read. The script mixes them 70/20/10 by
// tier. About a tenth of the cheap requests queue behind the other
// client's heavy query and leave the cheap latency band, so 35 % + 35 %
// is what it takes for the whole-mix median to sit mid-limit100 (HTTP
// and parse overhead) and not on the band's upper edge; the tail
// percentile sits inside the heavy tier (walk, decode, serialize).
type queryClass struct {
	name   string
	tier   int                // 0 cheap, 1 medium, 2 heavy
	weight int                // percent of the script
	vars   int                // projection width; 0 for ASK
	stop   int                // rows the bare BGP solve needs before it may stop; 0 = all
	text   func(k int) string // k varies the constant of point lookups
	bgp    [][3]string        // set when text is this plain pattern list and nothing else
}

var rdfType = rdf.RDFType

var queryClasses = []queryClass{
	{name: "ask_point", tier: 0, weight: 35, stop: 1, text: func(k int) string {
		return fmt.Sprintf("ASK { %s %s ?d }", lubm(fmt.Sprintf("Student%d", k)), lubm("memberOf"))
	}},
	{name: "limit100", tier: 0, weight: 35, vars: 2, stop: 100, text: func(int) string {
		return "SELECT ?x ?d WHERE { ?x " + lubm("memberOf") + " ?d } LIMIT 100"
	}},
	{name: "join2", tier: 1, weight: 7, vars: 3, text: func(int) string {
		return "SELECT ?x ?d ?c WHERE { ?x " + lubm("worksFor") + " ?d . ?x " + lubm("teacherOf") + " ?c }"
	}, bgp: [][3]string{{"?x", lubm("worksFor"), "?d"}, {"?x", lubm("teacherOf"), "?c"}}},
	{name: "topk", tier: 1, weight: 7, vars: 2, text: func(int) string {
		return "SELECT ?x ?d WHERE { ?x " + lubm("worksFor") + " ?d } ORDER BY DESC(?x) LIMIT 10"
	}},
	{name: "count", tier: 1, weight: 6, vars: 1, text: func(int) string {
		return "SELECT (COUNT(*) AS ?n) WHERE { ?x " + lubm("teacherOf") + " ?c }"
	}},
	{name: "type_scan", tier: 2, weight: 5, vars: 1, text: func(int) string {
		return "SELECT ?x WHERE { ?x " + rdfType + " " + lubm("Person") + " }"
	}, bgp: [][3]string{{"?x", rdfType, lubm("Person")}}},
	{name: "groupby", tier: 2, weight: 5, vars: 2, text: func(int) string {
		return "SELECT ?d (COUNT(*) AS ?n) WHERE { ?x " + lubm("memberOf") + " ?d } GROUP BY ?d"
	}},
}

// pointKeys bounds the student index of point lookups; every dataset
// size the benchmark uses has at least this many students.
const pointKeys = 1000

type scriptItem struct{ class, key int }

// queryScript lays out n requests with exact per-class counts, shuffled
// by the seed.
func queryScript(n int, seed int64) []scriptItem {
	rng := rand.New(rand.NewSource(seed))
	script := make([]scriptItem, 0, n)
	for c, qc := range queryClasses {
		for i := 0; i < n*qc.weight/100; i++ {
			script = append(script, scriptItem{c, rng.Intn(pointKeys)})
		}
	}
	for len(script) < n { // rounding remainder goes to the cheapest class
		script = append(script, scriptItem{0, rng.Intn(pointKeys)})
	}
	rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
	return script
}

// execCount evaluates text in process and returns delivered rows (1 for
// a true ASK) and the time to the first row.
func execCount(r *inferray.Reasoner, text string) (rows int, first, total time.Duration, err error) {
	start := time.Now()
	res, err := r.ExecFunc(text, 0, nil, func(map[string]string) bool {
		if rows == 0 {
			first = time.Since(start)
		}
		rows++
		return true
	})
	total = time.Since(start)
	if res.Ask {
		rows, first = b2i(res.Truth), total
	}
	return rows, first, total, err
}

// expectedRows is the in-process oracle the HTTP responses are checked
// against.
func expectedRows(res *result, r *inferray.Reasoner) ([]int, error) {
	want := make([]int, len(queryClasses))
	for c, qc := range queryClasses {
		rows, _, _, err := execCount(r, qc.text(0))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", qc.name, err)
		}
		want[c] = rows
		res.verify("oracle_nonempty_"+qc.name, rows > 0, "no rows")
		if qc.bgp == nil {
			continue
		}
		// An unmodified BGP must agree with the pattern API.
		n, err := r.QueryCount(qc.bgp...)
		if err != nil {
			return nil, err
		}
		res.verify("querycount_"+qc.name, n == rows, "QueryCount %d, ExecFunc %d", n, rows)
	}
	return want, nil
}

// replyOK checks one /query response against the oracle: want rows over
// vars projected variables, or for an ASK (vars 0) want as its truth.
func replyOK(rep reply, vars, want int) bool {
	if rep.status != 200 {
		return false
	}
	if vars == 0 {
		return askTrue(rep.body) == (want == 1)
	}
	return resultRows(rep.body, vars) == want
}

type querySetup struct {
	r       *inferray.Reasoner
	ls      *liveServer
	counts  closureCounts
	triples []rdf.Triple
}

// setupQuery generates LUBM, materializes it and starts the server,
// SetupReps times; earlier instances are shut down.
func setupQuery(e *env, clients int) (qs querySetup, setups []float64, err error) {
	for i := 0; i < e.sz.SetupReps; i++ {
		if qs.ls != nil {
			if err := qs.ls.stop(); err != nil {
				return qs, nil, err
			}
		}
		qs = querySetup{}
		start := time.Now()
		qs.triples = datagen.LUBM(e.sz.LUBMTriples, e.seed)
		var st inferray.Stats
		if qs.r, st, err = materialized(qs.triples); err != nil {
			return qs, nil, err
		}
		qs.counts = countsOf(st)
		if qs.ls, err = serve(qs.r, server.Config{CacheEntries: queryCacheEntries}, clients); err != nil {
			return qs, nil, err
		}
		c := client{ls: qs.ls}
		if rep, err := c.query(queryClasses[0].text(0)); err != nil || rep.status != 200 {
			return qs, nil, fmt.Errorf("server not answering: %v (status %d)", err, rep.status)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return qs, setups, nil
}

type querySample struct {
	class int
	took  time.Duration
}

// runScript drives the script through n closed-loop clients and returns
// every sample and the script wall.
func runScript(res *result, ls *liveServer, script []scriptItem, want []int, clients int) ([]querySample, time.Duration, error) {
	var next atomic.Int64
	perClient := make([][]querySample, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	var failed atomic.Int64
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client{ls: ls}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(script) {
					return
				}
				it := script[i]
				qc := queryClasses[it.class]
				rep, err := c.query(qc.text(it.key))
				if err != nil {
					errs[w] = err
					return
				}
				if !replyOK(rep, qc.vars, want[it.class]) {
					failed.Add(1)
				}
				perClient[w] = append(perClient[w], querySample{it.class, rep.took})
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []querySample
	for w := range perClient {
		if errs[w] != nil {
			return nil, 0, errs[w]
		}
		all = append(all, perClient[w]...)
	}
	res.op(len(all), int(failed.Load()))
	return all, wall, nil
}

func runQuery(e *env) (*result, error) {
	res := newResult("lubm_query")
	base := liveHeap()
	qs, setups, err := setupQuery(e, queryClients)
	if err != nil {
		return nil, err
	}
	defer func() { qs.ls.stop() }()
	qs.triples = nil
	res.verifyCounts(e, qs.counts)
	want, err := expectedRows(res, qs.r)
	if err != nil {
		return nil, err
	}
	warm := make([]scriptItem, 0, 2*len(queryClasses))
	for c := range queryClasses {
		warm = append(warm, scriptItem{c, 0}, scriptItem{c, 1})
	}
	if _, _, err := runScript(newResult(""), qs.ls, warm, want, queryClients); err != nil {
		return nil, err
	}

	samples, wall, err := runScript(res, qs.ls, queryScript(e.sz.Queries, e.seed), want, queryClients)
	if err != nil {
		return nil, err
	}
	heap := liveHeap()
	final := digestOf(qs.r)
	res.verify("closure_size", final.N == qs.counts.Total, "digest %d, Stats %d", final.N, qs.counts.Total)
	restarts, err := imageRestart(res, e, qs.r, final, lubmIngest.probe)
	if err != nil {
		return nil, err
	}

	sort.Slice(samples, func(i, j int) bool { return samples[i].took < samples[j].took })
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = ms(s.took)
	}
	m := res.EndToEnd
	m.median("setup_s", setups, "s")
	m.quantile("op_p50_ms", lat, 0.50, "ms")
	m.quantile("op_tail_ms", lat, 0.98, "ms")
	m.set("ops_per_s", float64(len(samples))/wall.Seconds(), "1/s")
	m.set("heap_bytes_per_triple", heapPerTriple(base, heap, qs.counts.Total), "B")
	m.median("restart_s", restarts, "s")
	classAt := func(p float64) string { return queryClasses[samples[int(p*float64(len(samples)-1))].class].name }
	res.Derived["p50_class"] = classAt(0.50)
	res.Derived["tail_class"] = classAt(0.98)
	res.Derived["closure"] = qs.counts
	res.Derived["closure_digest"] = final
	res.Derived["rows_per_class"] = classMap(func(c int) any { return want[c] })
	res.Derived["p50_ms_per_class"] = classMap(func(c int) any {
		var l []float64
		for _, s := range samples {
			if s.class == c {
				l = append(l, ms(s.took))
			}
		}
		return medianOf(l)
	})
	return res, nil
}

func classMap(f func(c int) any) map[string]any {
	out := map[string]any{}
	for c, qc := range queryClasses {
		out[qc.name] = f(c)
	}
	return out
}

// idPatterns encodes a parsed group's triple patterns against the
// engine's dictionary, numbering variables in order of first appearance.
func idPatterns(eng *reasoner.Engine, pats [][3]string) ([]query.Pattern, int, error) {
	slots := map[string]int{}
	term := func(raw string) (query.Term, error) {
		if strings.HasPrefix(raw, "?") {
			if _, ok := slots[raw]; !ok {
				slots[raw] = len(slots)
			}
			return query.Var(slots[raw]), nil
		}
		id, ok := eng.Dict.Lookup(raw)
		if !ok {
			return query.Term{}, fmt.Errorf("term %s not in dictionary", raw)
		}
		return query.Const(id), nil
	}
	out := make([]query.Pattern, len(pats))
	for i, p := range pats {
		var t [3]query.Term
		for j, raw := range p {
			var err error
			if t[j], err = term(raw); err != nil {
				return nil, 0, err
			}
		}
		out[i] = query.Pattern{S: t[0], P: t[1], O: t[2]}
	}
	return out, len(slots), nil
}

func mallocs() uint64 {
	var stats runtime.MemStats
	runtime.ReadMemStats(&stats)
	return stats.Mallocs
}

// traceQuery walks each class down the read path with one client: parse,
// plan and solve on a bench-built engine, ExecFunc in process, then the
// same text over loopback HTTP.
func traceQuery(e *env) (*result, error) {
	res := newResult("lubm_query")
	once := *e
	once.sz.SetupReps = 1
	qs, _, err := setupQuery(&once, 1)
	if err != nil {
		return nil, err
	}
	defer func() { qs.ls.stop() }()
	res.verifyCounts(e, qs.counts)
	want, err := expectedRows(res, qs.r)
	if err != nil {
		return nil, err
	}
	eng := reasoner.New(engineOptions())
	eng.LoadTriples(qs.triples)
	qs.triples = nil
	eng.Materialize()
	res.verify("traced_path_digest", digestOf(eng) == digestOf(qs.r), "hand-built engine and root reasoner closures differ")
	qe := query.Engine{St: eng.Main}
	if hv := eng.HierView(); hv != nil {
		qe.Virtual = hv
	}

	tr, m := e.tr, res.PerLayer
	c := client{ls: qs.ls}
	var parses, plans []float64
	var solveRows, execRows, httpRows, httpBytes, solveAllocs, execAllocs float64
	var solveTime, httpTime time.Duration
	var wallOff time.Duration
	for ci, qc := range queryClasses {
		text := qc.text(0)
		reps := e.sz.ClassReps[qc.tier]
		var solves, execs, firsts, https []float64
		for i := 0; i < reps; i++ {
			it := tr.begin("query:"+qc.name, -1, i)
			var q *sparql.Query
			parses = append(parses, us(tr.do("sparql.parse", it, i, func() { q, err = sparql.ParseQuery(text) })))
			if err != nil {
				return nil, err
			}
			pats, nVars, err := idPatterns(eng, q.Groups[0].Patterns)
			if err != nil {
				return nil, err
			}
			plans = append(plans, us(tr.do("query.plan", it, i, func() { qe.Plan(pats) })))

			rows := 0
			before := mallocs()
			took := tr.do("query.solve", it, i, func() {
				err = qe.Solve(pats, nVars, func([]uint64) bool {
					rows++
					return rows != qc.stop
				})
			})
			if err != nil {
				return nil, err
			}
			solveAllocs += float64(mallocs() - before)
			solves = append(solves, us(took))
			solveRows += float64(rows)
			solveTime += took

			before = mallocs()
			var n int
			var first time.Duration
			took = tr.do("inferray.exec", it, i, func() { n, first, _, err = execCount(qs.r, text) })
			if err != nil {
				return nil, err
			}
			execAllocs += float64(mallocs() - before)
			execs = append(execs, us(took))
			firsts = append(firsts, us(first))
			execRows += float64(n)
			res.op(1, b2i(n != want[ci]))

			var rep reply
			took = tr.do("server.http", it, i, func() { rep, err = c.query(text) })
			if err != nil {
				return nil, err
			}
			https = append(https, us(took))
			httpRows += float64(want[ci])
			httpBytes += float64(len(rep.body))
			httpTime += took
			res.op(1, b2i(!replyOK(rep, qc.vars, want[ci])))
			tr.end(it)

			// The same request with no span around it, for the overhead.
			rep, err = c.query(text)
			if err != nil {
				return nil, err
			}
			wallOff += rep.took
		}
		m.median("query.solve_us."+qc.name, solves, "us")
		m.median("inferray.exec_us."+qc.name, execs, "us")
		m.median("inferray.first_row_us."+qc.name, firsts, "us")
		m.median("server.http_us."+qc.name, https, "us")
	}
	m.median("sparql.parse_us", parses, "us")
	m.median("query.plan_us", plans, "us")
	res.exact("query.solve_rows", int64(solveRows))
	res.exact("server.response_bytes", int64(httpBytes))
	m.set("query.solve_rows_per_s", solveRows/solveTime.Seconds(), "1/s")
	m.set("query.solve_allocs_per_row", solveAllocs/solveRows, "count")
	m.set("inferray.exec_allocs_per_row", execAllocs/execRows, "count")
	m.set("server.rows_per_s", httpRows/httpTime.Seconds(), "1/s")
	m.set("server.bytes_per_s", httpBytes/httpTime.Seconds(), "B/s")
	m.set("trace.overhead_frac", (httpTime-wallOff).Seconds()/wallOff.Seconds(), "ratio")
	return res, nil
}

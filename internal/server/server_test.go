package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"inferray"
)

func newTestServer(t *testing.T) (*httptest.Server, *inferray.Reasoner) {
	t.Helper()
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	base := `
<subOrgOf> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2002/07/owl#TransitiveProperty> .
<worksFor> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <memberOf> .
<DeptCS> <subOrgOf> <Univ0> .
<alice> <worksFor> <DeptCS> .
<alice> <http://www.w3.org/2000/01/rdf-schema#label> "Alice"@en .
`
	if err := r.LoadNTriples(strings.NewReader(base)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(r).Handler())
	t.Cleanup(ts.Close)
	return ts, r
}

// TestOversizedQueryBody413: a POST /query body past the 1 MiB cap
// answers the same structured 413 as the write endpoints, and is counted
// as a 413; a body at the cap is still evaluated.
func TestOversizedQueryBody413(t *testing.T) {
	ts, _ := newTestServer(t)
	const limit = 1 << 20
	post := func(n int) *http.Response {
		t.Helper()
		q := "SELECT ?s WHERE { ?s ?p ?o }"
		body := q + strings.Repeat(" ", n-len(q))
		resp, err := http.Post(ts.URL+"/query", "application/sparql-query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(limit); resp.StatusCode != http.StatusOK {
		t.Fatalf("a body at the cap: status %d, want 200", resp.StatusCode)
	}
	resp := post(limit + 1)
	var payload struct {
		Error      string `json:"error"`
		LimitBytes int64  `json:"limit_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%+v)", resp.StatusCode, payload)
	}
	if payload.LimitBytes != limit || payload.Error == "" {
		t.Fatalf("413 body = %+v", payload)
	}
	if want := `inferray_http_requests_total{endpoint="query",code="413"} 1`; !strings.Contains(scrape(t, ts), want) {
		t.Fatalf("exposition missing %q", want)
	}
}

func getResults(t *testing.T, ts *httptest.Server, query string) sparqlResults {
	t.Helper()
	resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("content type %q", ct)
	}
	var res sparqlResults
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQueryEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	res := getResults(t, ts, `SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`)
	if len(res.Head.Vars) != 1 || res.Head.Vars[0] != "who" {
		t.Fatalf("head vars = %v", res.Head.Vars)
	}
	if len(res.Results.Bindings) != 1 {
		t.Fatalf("bindings = %v", res.Results.Bindings)
	}
	b := res.Results.Bindings[0]["who"]
	if b.Type != "uri" || b.Value != "alice" {
		t.Fatalf("binding = %+v", b)
	}
}

func TestQueryEndpointLiteralBinding(t *testing.T) {
	ts, _ := newTestServer(t)
	res := getResults(t, ts,
		`SELECT ?name WHERE { <alice> <http://www.w3.org/2000/01/rdf-schema#label> ?name }`)
	if len(res.Results.Bindings) != 1 {
		t.Fatalf("bindings = %v", res.Results.Bindings)
	}
	b := res.Results.Bindings[0]["name"]
	if b.Type != "literal" || b.Value != "Alice" || b.Lang != "en" {
		t.Fatalf("binding = %+v", b)
	}
}

func TestQueryEndpointSelectStarVars(t *testing.T) {
	ts, _ := newTestServer(t)
	res := getResults(t, ts, `SELECT * WHERE { ?who <memberOf> ?org }`)
	if len(res.Head.Vars) != 2 || res.Head.Vars[0] != "who" || res.Head.Vars[1] != "org" {
		t.Fatalf("head vars = %v", res.Head.Vars)
	}
}

func TestQueryEndpointPost(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/query", "application/sparql-query",
		strings.NewReader(`SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, q := range map[string]string{
		"missing":            "",
		"syntax":             "SELECT WHERE",
		"unsupported":        "SELECT ?x WHERE { ?x <p> ?y MINUS { ?x <q> ?z } }",
		"unknown projection": "SELECT ?whoo WHERE { ?who <memberOf> ?org }",
	} {
		resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// Regression: /query used to swallow the parser's detail. A syntax
// error must come back as structured JSON carrying the parser's exact
// line/column/token, and an unsupported construct must name itself.
func TestQueryEndpointStructuredErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	q := "SELECT ?x WHERE {\n  ?x <p> ?y .\n  MINUS { ?x <q> ?z }\n}"
	resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var qe queryError
	if err := json.NewDecoder(resp.Body).Decode(&qe); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qe.Error, "MINUS is not supported") {
		t.Fatalf("error message lost the construct: %+v", qe)
	}
	if qe.Line != 3 || qe.Column != 3 || qe.Token != "MINUS" {
		t.Fatalf("position info = %+v, want line 3 col 3 token MINUS", qe)
	}

	// Non-parse errors (unknown projection) stay structured but carry
	// no position.
	resp2, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape("SELECT ?whoo WHERE { ?who <memberOf> ?org }"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var qe2 queryError
	if err := json.NewDecoder(resp2.Body).Decode(&qe2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qe2.Error, "whoo") || qe2.Line != 0 {
		t.Fatalf("projection error = %+v", qe2)
	}
}

func TestQueryEndpointFilterOrderByDistinct(t *testing.T) {
	ts, _ := newTestServer(t)
	res := getResults(t, ts,
		`SELECT DISTINCT ?org WHERE { ?x <subOrgOf> ?org . FILTER(?org != <nowhere>) } ORDER BY ?org`)
	if len(res.Results.Bindings) != 1 || res.Results.Bindings[0]["org"].Value != "Univ0" {
		t.Fatalf("bindings = %v", res.Results.Bindings)
	}
}

func TestQueryEndpointAsk(t *testing.T) {
	ts, _ := newTestServer(t)
	for q, want := range map[string]bool{
		`ASK { <alice> <memberOf> <DeptCS> }`: true,
		`ASK { <alice> <memberOf> <Univ0> }`:  false,
	} {
		resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", q, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
			t.Fatalf("ask content type %q", ct)
		}
		var doc struct {
			Boolean *bool `json:"boolean"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if doc.Boolean == nil || *doc.Boolean != want {
			t.Fatalf("%s: boolean = %v, want %t", q, doc.Boolean, want)
		}
	}
}

// The limit query parameter caps rows on top of the query's own LIMIT,
// and a bad value is a 400.
func TestQueryEndpointLimitParam(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/query?limit=2&query=" + url.QueryEscape(`SELECT * WHERE { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	var res sparqlResults
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(res.Results.Bindings) != 2 {
		t.Fatalf("limit=2 delivered %d bindings", len(res.Results.Bindings))
	}

	bad, err := http.Get(ts.URL + "/query?limit=-1&query=" + url.QueryEscape(`SELECT * WHERE { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=-1 status %d, want 400", bad.StatusCode)
	}
}

// A query with zero solutions still streams a complete, decodable
// document with the head present.
func TestQueryEndpointEmptyResultDocument(t *testing.T) {
	ts, _ := newTestServer(t)
	res := getResults(t, ts, `SELECT ?who WHERE { ?who <memberOf> <NoSuchOrg> }`)
	if len(res.Head.Vars) != 1 || res.Head.Vars[0] != "who" {
		t.Fatalf("head vars = %v", res.Head.Vars)
	}
	if len(res.Results.Bindings) != 0 {
		t.Fatalf("bindings = %v", res.Results.Bindings)
	}
}

func TestTriplesDeltaExtendsClosureIncrementally(t *testing.T) {
	ts, r := newTestServer(t)
	before := r.Size()

	// bob joins a group nested under DeptCS: the closure must extend to
	// bob being a member of GroupB and (via rule chains) of nothing less.
	delta := `
<bob> <worksFor> <GroupB> .
<GroupB> <subOrgOf> <DeptCS> .
`
	resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var dr deltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if dr.Staged != 2 || !dr.Incremental || dr.Total <= before {
		t.Fatalf("delta response = %+v (before=%d)", dr, before)
	}

	// The new fact and its inferences are queryable.
	if !r.Holds("<bob>", "<memberOf>", "<GroupB>") {
		t.Fatal("delta inference missing")
	}
	if !r.Holds("<GroupB>", "<subOrgOf>", "<Univ0>") {
		t.Fatal("transitive inference over delta missing")
	}
	res := getResults(t, ts, `SELECT ?org WHERE { <GroupB> <subOrgOf> ?org }`)
	if len(res.Results.Bindings) != 2 { // DeptCS and Univ0
		t.Fatalf("bindings = %v", res.Results.Bindings)
	}
}

func TestTriplesRejectsBadInput(t *testing.T) {
	ts, r := newTestServer(t)
	before := r.Size()
	resp, err := http.Post(ts.URL+"/triples", "application/n-triples",
		strings.NewReader("this is not ntriples\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if r.Size() != before || r.Pending() != 0 {
		t.Fatal("bad document partially staged")
	}
}

func TestStatsAndHealthz(t *testing.T) {
	ts, r := newTestServer(t)
	getResults(t, ts, `SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Triples == 0 || st.Queries != 1 || st.Fragment != "rdfs-plus" {
		t.Fatalf("stats = %+v", st)
	}
	// The fixture has a subPropertyOf edge, so the hierarchy interval
	// encoding is active and /stats must carry its section.
	if st.Hierarchy == nil {
		t.Fatal("/stats lacks hierarchy section with encoding active")
	}
	if st.Hierarchy.Properties < 2 || st.Hierarchy.Intervals == 0 {
		t.Fatalf("hierarchy stats = %+v", st.Hierarchy)
	}
	if got := st.Hierarchy.MaterializedTriples + st.Hierarchy.VirtualTriples; got != r.Size() {
		t.Fatalf("materialized+virtual = %d, want Size() = %d", got, r.Size())
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hresp.StatusCode)
	}
}

// TestConcurrentQueriesAndDeltas is the end-to-end race check at the
// HTTP layer: SELECTs stream in while deltas re-materialize the store.
func TestConcurrentQueriesAndDeltas(t *testing.T) {
	ts, _ := newTestServer(t)
	const readers = 4
	const perReader = 25

	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perReader; j++ {
				res := getResults(t, ts, `SELECT ?who ?org WHERE { ?who <memberOf> ?org }`)
				if len(res.Results.Bindings) == 0 {
					t.Error("no bindings")
					return
				}
			}
		}()
	}
	// Several writers at once, with nothing but apply's write lock
	// between them: each response must describe its own batch — one
	// staged, one new — never a neighbour's or a drained-empty buffer.
	const writers = 3
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				delta := fmt.Sprintf("<worker%d_%d> <worksFor> <DeptCS> .\n", w, j)
				resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(delta))
				if err != nil {
					t.Error(err)
					return
				}
				var dr deltaResponse
				err = json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("delta status %d (%v)", resp.StatusCode, err)
					return
				}
				if dr.Staged != 1 || dr.NewInput != 1 {
					t.Errorf("delta %q answered staged=%d new_input=%d, want 1 and 1", delta, dr.Staged, dr.NewInput)
				}
			}
		}(w)
	}
	wg.Wait()

	res := getResults(t, ts, `SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`)
	if len(res.Results.Bindings) != 1+writers*10 { // alice + the workers
		t.Fatalf("final bindings = %d, want %d", len(res.Results.Bindings), 1+writers*10)
	}
}

// TestGracefulShutdown drives Serve directly: cancellation must stop
// the listener and return nil.
func TestGracefulShutdown(t *testing.T) {
	r := inferray.New()
	if err := r.Add("<a>", inferray.Type, "<C>"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- New(r).Serve(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not shut down")
	}
}

// newDurableTestServer serves a durable reasoner from dir. The reasoner
// is returned so tests can crash it (abandon without Close) or close it.
func newDurableTestServer(t *testing.T, dir string) (*httptest.Server, *inferray.Reasoner) {
	t.Helper()
	r, err := inferray.Open(
		inferray.WithFragment(inferray.RDFSDefault),
		inferray.WithDurability(dir, inferray.DurabilityOptions{Sync: "always"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(r).Handler())
	t.Cleanup(ts.Close)
	return ts, r
}

func postTriples(t *testing.T, ts *httptest.Server, doc string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /triples status %d", resp.StatusCode)
	}
}

// A request-scoped write is all or nothing: when the write-ahead log
// refuses it, the client is told so and the batch is gone — not staged
// for the next request (or the settle ahead of a DELETE or a checkpoint)
// to log and apply behind its back.
func TestRefusedWriteIsNotAppliedLater(t *testing.T) {
	dir := t.TempDir()
	ts, r := newDurableTestServer(t, dir)
	postTriples(t, ts, "<a> <p> <b> .\n")
	if err := r.Close(); err != nil { // every append from here on fails
		t.Fatal(err)
	}
	for _, req := range []struct{ path, ctype, body string }{
		{"/update", "application/sparql-update", "INSERT DATA { <lost> <p> <update> }"},
		{"/triples", "application/n-triples", "<lost> <p> <triples> .\n"},
	} {
		resp, err := http.Post(ts.URL+req.path, req.ctype, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("POST %s with the log closed: status %d, want 500", req.path, resp.StatusCode)
		}
		if n := r.Pending(); n != 0 {
			t.Errorf("POST %s left %d refused triples staged", req.path, n)
		}
	}
	if r.Holds("<lost>", "<p>", "<update>") || r.Holds("<lost>", "<p>", "<triples>") {
		t.Error("a refused write is visible")
	}

	reopened, err := inferray.Open(
		inferray.WithFragment(inferray.RDFSDefault),
		inferray.WithDurability(dir, inferray.DurabilityOptions{Sync: "always"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if !reopened.Holds("<a>", "<p>", "<b>") {
		t.Error("the acknowledged write did not survive")
	}
	if reopened.Holds("<lost>", "<p>", "<update>") || reopened.Holds("<lost>", "<p>", "<triples>") {
		t.Error("a refused write reached the log")
	}
}

// POST /checkpoint on a durable server writes an image, truncates the
// WAL, and /stats reflects all of it; a server restart over the same
// dir (after a simulated crash) serves the identical closure.
func TestCheckpointEndpointAndDurableStats(t *testing.T) {
	dir := t.TempDir()
	ts, r := newDurableTestServer(t, dir)
	postTriples(t, ts, "<a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <b> .\n<b> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <c> .\n")

	resp, err := http.Post(ts.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpointResponse
	if err := json.NewDecoder(resp.Body).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cp.Generation != 1 || cp.SnapshotBytes == 0 {
		t.Fatalf("checkpoint response %d: %+v", resp.StatusCode, cp)
	}

	postTriples(t, ts, "<x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <a> .\n")

	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if st.Durability == nil {
		t.Fatal("/stats lacks durability section on a durable reasoner")
	}
	if st.Durability.Generation != 1 || st.Durability.WALRecords != 1 || st.Durability.Checkpoints != 1 {
		t.Fatalf("durability stats: %+v", st.Durability)
	}
	if st.Durability.SyncPolicy != "always" || st.Durability.Dir != dir {
		t.Fatalf("durability identity: %+v", st.Durability)
	}

	want := r.Size()
	ts.Close() // stop HTTP; the reasoner "crashes" (no Close)

	ts2, r2 := newDurableTestServer(t, dir)
	if r2.Size() != want {
		t.Fatalf("restarted server holds %d triples, want %d", r2.Size(), want)
	}
	res := getResults(t, ts2, `SELECT ?t WHERE { <x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t }`)
	if len(res.Results.Bindings) != 3 { // a, b, c
		t.Fatalf("recovered closure answers %d types, want 3", len(res.Results.Bindings))
	}
	var st2 statsResponse
	sr, err := http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sr.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if st2.Durability == nil || !st2.Durability.RecoveredFromSnapshot || st2.Durability.ReplayedRecords != 1 {
		t.Fatalf("recovery stats after restart: %+v", st2.Durability)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
}

// /checkpoint on an in-memory reasoner is a 409, and /stats omits the
// durability section.
func TestCheckpointEndpointNotDurable(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint on in-memory reasoner: status %d", resp.StatusCode)
	}
	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Durability != nil {
		t.Fatal("/stats grew a durability section on an in-memory reasoner")
	}
	if g, err := http.Get(ts.URL + "/checkpoint"); err == nil {
		if g.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /checkpoint status %d", g.StatusCode)
		}
		g.Body.Close()
	}
}

// Unbound cells — UNION branches with disjoint variables, unmatched
// OPTIONAL blocks — must be *omitted* from the results-JSON binding
// objects, never serialized as empty strings (the results-JSON spec's
// representation of SPARQL's unbound).
func TestQueryEndpointOmitsUnboundCells(t *testing.T) {
	ts, _ := newTestServer(t)

	// The raw body, not the decoded struct: an empty-string cell and an
	// omitted cell decode identically into Go maps.
	get := func(q string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		if _, err := io.Copy(&buf, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, buf.String())
		}
		return buf.String()
	}

	// UNION with disjoint variables: the label-branch row has no ?org.
	body := get(`SELECT ?who ?org ?name WHERE {
  { ?who <memberOf> ?org } UNION { ?who <http://www.w3.org/2000/01/rdf-schema#label> ?name }
} ORDER BY ?who`)
	if strings.Contains(body, `"org":{"type":"literal","value":""}`) ||
		strings.Contains(body, `"value":""`) {
		t.Fatalf("unbound cell serialized as empty string: %s", body)
	}
	var res sparqlResults
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	sawWithout, sawWith := false, false
	for _, b := range res.Results.Bindings {
		if _, ok := b["org"]; ok {
			sawWith = true
		} else {
			sawWithout = true
		}
	}
	if !sawWith || !sawWithout {
		t.Fatalf("expected a mix of bound and omitted ?org cells: %s", body)
	}

	// Unmatched OPTIONAL: same contract.
	body = get(`SELECT ?who ?org ?name WHERE {
  ?who <memberOf> ?org OPTIONAL { ?who <nickname> ?name }
}`)
	var res2 sparqlResults
	if err := json.Unmarshal([]byte(body), &res2); err != nil {
		t.Fatal(err)
	}
	if len(res2.Results.Bindings) == 0 {
		t.Fatalf("no bindings: %s", body)
	}
	for _, b := range res2.Results.Bindings {
		if _, ok := b["name"]; ok {
			t.Fatalf("unmatched OPTIONAL cell must be omitted: %s", body)
		}
	}
}

// An aggregate query through the endpoint: typed integer literals in
// the bindings, and the server's limit= cap still applies.
func TestQueryEndpointAggregates(t *testing.T) {
	ts, _ := newTestServer(t)
	res := getResults(t, ts,
		`SELECT ?org (COUNT(*) AS ?n) WHERE { ?who <memberOf> ?org } GROUP BY ?org ORDER BY ?org`)
	if len(res.Results.Bindings) != 1 {
		t.Fatalf("bindings = %v", res.Results.Bindings)
	}
	n := res.Results.Bindings[0]["n"]
	if n.Type != "literal" || n.Value != "1" ||
		n.Datatype != "http://www.w3.org/2001/XMLSchema#integer" {
		t.Fatalf("count binding = %+v", n)
	}
}

// TestUpdateEndpoint: POST /update runs SPARQL UPDATE text against the
// reasoner — raw body and form variants — and subsequent queries see
// the maintained closure.
func TestUpdateEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)

	// Raw application/sparql-update body: bob joins DeptCS; the
	// subPropertyOf rule must fire on the inserted triple.
	resp, err := http.Post(ts.URL+"/update", "application/sparql-update",
		strings.NewReader(`INSERT DATA { <bob> <worksFor> <DeptCS> }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ur updateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	if ur.Ops != 1 || ur.Inserted != 1 || ur.Deleted != 0 {
		t.Fatalf("response = %+v", ur)
	}
	res := getResults(t, ts, `SELECT ?who WHERE { ?who <memberOf> <DeptCS> } ORDER BY ?who`)
	if len(res.Results.Bindings) != 2 {
		t.Fatalf("bindings = %v", res.Results.Bindings)
	}

	// Form-encoded variant: DELETE WHERE retracts alice's assertion,
	// and delete-rederive takes her derived memberOf with it.
	resp2, err := http.PostForm(ts.URL+"/update", url.Values{
		"update": {`DELETE WHERE { <alice> <worksFor> ?org }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp2.Body)
		t.Fatalf("status %d: %s", resp2.StatusCode, body)
	}
	var ur2 updateResponse
	if err := json.NewDecoder(resp2.Body).Decode(&ur2); err != nil {
		t.Fatal(err)
	}
	if ur2.Deleted != 1 {
		t.Fatalf("response = %+v", ur2)
	}
	res = getResults(t, ts, `SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`)
	if len(res.Results.Bindings) != 1 || res.Results.Bindings[0]["who"].Value != "bob" {
		t.Fatalf("bindings = %v", res.Results.Bindings)
	}

	// /stats counts the updates.
	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Updates != 2 || st.UpdateErrors != 0 {
		t.Fatalf("stats updates = %d / errors = %d, want 2 / 0", st.Updates, st.UpdateErrors)
	}
}

// TestUpdateEndpointErrors: parse failures come back as 400 with the
// parser's position, wrong methods as 405, and the error counter moves.
func TestUpdateEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/update", "application/sparql-update", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/update", "application/sparql-update",
		strings.NewReader("INSERT DATA {\n  ?x <p> <o>\n}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var qe queryError
	if err := json.NewDecoder(resp.Body).Decode(&qe); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qe.Error, "variables are not allowed in INSERT DATA") {
		t.Fatalf("error = %+v", qe)
	}
	if qe.Line != 2 || qe.Token != "?x" {
		t.Fatalf("position = %+v, want line 2 token ?x", qe)
	}

	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.UpdateErrors == 0 {
		t.Fatal("/stats update_errors did not move")
	}
}

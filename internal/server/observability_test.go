package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"inferray"
)

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpointFamilies(t *testing.T) {
	ts, _ := newTestServer(t)
	// Generate traffic so the families have samples.
	getResults(t, ts, `SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`)
	body := scrape(t, ts)

	for _, want := range []string{
		// Server-owned HTTP families.
		"# TYPE inferray_http_requests_total counter",
		`inferray_http_requests_total{endpoint="query",code="200"} 1`,
		"# TYPE inferray_http_request_duration_seconds histogram",
		`inferray_http_request_duration_seconds_bucket{endpoint="query",le="+Inf"} 1`,
		"# TYPE inferray_http_in_flight_requests gauge",
		// Reasoner-owned families, appended by Reasoner.WriteMetrics.
		"# TYPE inferray_reasoner_materializations_total counter",
		"inferray_reasoner_materializations_total 1",
		"# TYPE inferray_query_solves_total counter",
		`inferray_query_solves_total{engine="planned"} 1`,
		"# TYPE inferray_query_evaluations_total counter",
		"inferray_query_evaluations_total 1",
		"# TYPE inferray_wal_appends_total counter",
		"# TYPE inferray_build_info gauge",
		`fragment="rdfs-plus"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestQueryWriteObservability: every /query body written — evaluated,
// from the cache, or an ASK — is counted in
// inferray_http_query_response_bytes_total and /stats, and timed once in
// inferray_http_query_write_seconds; a failed query is neither.
func TestQueryWriteObservability(t *testing.T) {
	ts, _ := newTestServer(t)
	sel := `SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`
	total := 0
	for i, q := range []string{sel, sel, `ASK { <alice> <memberOf> <DeptCS> }`} {
		code, body, _, _ := tierGet(t, ts, q, false)
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
		total += len(body)
	}
	if code, _, _, _ := tierGet(t, ts, "SELECT nonsense", false); code != http.StatusBadRequest {
		t.Fatalf("malformed query: status %d, want 400", code)
	}
	if st := serverStats(t, ts); st.QueryBytes != uint64(total) {
		t.Fatalf("/stats query_response_bytes %d, the bodies hold %d", st.QueryBytes, total)
	}
	body := scrape(t, ts)
	for _, want := range []string{
		fmt.Sprintf("# TYPE inferray_http_query_response_bytes_total counter\ninferray_http_query_response_bytes_total %d\n", total),
		"# TYPE inferray_http_query_write_seconds histogram",
		"inferray_http_query_write_seconds_count 3\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestDebugTables: /debug/tables lists the largest tables first, its
// totals are the sum over every table, its dictionary split is the one
// /stats carries, and a malformed top is a 400.
func TestDebugTables(t *testing.T) {
	ts, r := newTestServer(t)
	get := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if v != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	var all, top2 tablesResponse
	if get("/debug/tables?top=1000", &all) != http.StatusOK || get("/debug/tables?top=2", &top2) != http.StatusOK {
		t.Fatal("/debug/tables refused a valid top")
	}
	if len(all.Top) != all.Tables.Count || len(top2.Top) != 2 {
		t.Fatalf("%d and %d tables listed, want all %d and 2", len(all.Top), len(top2.Top), all.Tables.Count)
	}
	var sum tableInfo
	for i, tb := range all.Top {
		if i > 0 && tb.Pairs > all.Top[i-1].Pairs {
			t.Fatalf("table %s (%d pairs) listed after one of %d", tb.Property, tb.Pairs, all.Top[i-1].Pairs)
		}
		if tb.PairBytes < 16*tb.Pairs {
			t.Errorf("table %s: %d pair bytes for %d pairs", tb.Property, tb.PairBytes, tb.Pairs)
		}
		sum.Pairs += tb.Pairs
		sum.PairBytes += tb.PairBytes
		sum.MarkBytes += tb.MarkBytes
		sum.OSCacheBytes += tb.OSCacheBytes
	}
	if sum.Count = all.Tables.Count; sum != all.Tables || sum.Pairs != r.StoredSize() {
		t.Fatalf("totals %+v, the tables sum to %+v over %d stored triples", all.Tables, sum, r.StoredSize())
	}
	if !slices.Equal(top2.Top, all.Top[:2]) {
		t.Fatalf("top=2 lists %+v, want the first two of %+v", top2.Top, all.Top)
	}
	d := all.Dictionary
	if d.Terms == 0 || d.TermBytes == 0 || d.ArenaBytes < d.TermBytes || d.RefBytes < 8*d.Terms || d.IndexBytes < 4*d.Terms {
		t.Fatalf("dictionary split %+v does not add up", d)
	}
	if st := serverStats(t, ts); st.Dictionary != d {
		t.Fatalf("/stats dictionary %+v, /debug/tables %+v", st.Dictionary, d)
	}
	for _, bad := range []string{"-1", "x", "1001"} {
		if code := get("/debug/tables?top="+bad, nil); code != http.StatusBadRequest {
			t.Errorf("top=%s: status %d, want 400", bad, code)
		}
	}
}

func TestMetricsEndpointCountsErrorsByCode(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape("SELECT nonsense"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := scrape(t, ts)
	if want := `inferray_http_requests_total{endpoint="query",code="400"} 1`; !strings.Contains(body, want) {
		t.Fatalf("exposition missing %q:\n%s", want, body)
	}
}

func TestReadyzGatesOnSetReady(t *testing.T) {
	r := inferray.New()
	srv := New(r)
	srv.SetReady(false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/readyz", http.StatusServiceUnavailable)
	check("/healthz", http.StatusOK) // liveness is independent of readiness
	srv.SetReady(true)
	check("/readyz", http.StatusOK)
}

func TestRequestIDEchoedAndMinted(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Fatal("no minted X-Request-ID on response")
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id != "trace-me-42" {
		t.Fatalf("X-Request-ID = %q, want the client's own", id)
	}
}

func TestPprofOptIn(t *testing.T) {
	r := inferray.New()
	srv := New(r)
	off := httptest.NewServer(srv.Handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without opt-in: status %d", resp.StatusCode)
	}

	srv.EnablePprof()
	on := httptest.NewServer(srv.Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d body %.80q", resp.StatusCode, body)
	}
}

// TestConcurrentScrapesWhileServing hammers queries, deltas, and
// /metrics scrapes concurrently; run under -race it proves every
// instrument update is synchronized with exposition.
func TestConcurrentScrapesWhileServing(t *testing.T) {
	ts, _ := newTestServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				getResults(t, ts, `SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			nt := fmt.Sprintf("<scraped%d> <worksFor> <DeptCS> .\n", i)
			resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(nt))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				scrape(t, ts)
			}
		}()
	}
	wg.Wait()

	// The counter increments after the handler returns, so the last
	// request's sample can trail its response by an instant: poll.
	want := `inferray_http_requests_total{endpoint="query",code="200"} 100`
	var body string
	for i := 0; i < 50; i++ {
		body = scrape(t, ts)
		if strings.Contains(body, want) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("exposition missing %q after hammer:\n%s", want, body)
}

// A query that hits -query-timeout is the slowest kind the server sees;
// it must show in the evaluation counter and the latency histogram, not
// only in the 504 count.
func TestTimedOutQueryIsCounted(t *testing.T) {
	r := inferray.New()
	if err := r.LoadNTriples(strings.NewReader("<a> <p> <b> .\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithConfig(r, Config{QueryTimeout: time.Nanosecond}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s <p> ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	body := scrape(t, ts)
	for _, want := range []string{
		"inferray_query_evaluations_total 1",
		"inferray_query_seconds_count 1",
		"inferray_admission_deadline_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

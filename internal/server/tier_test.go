package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"inferray"
	"inferray/internal/datagen"
	"inferray/internal/rdf"
)

// tierGet issues one GET /query and returns status, body, and the
// cache/generation headers.
func tierGet(t *testing.T, ts *httptest.Server, query string, noCache bool) (int, []byte, string, uint64) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/query?query="+url.QueryEscape(query), nil)
	if err != nil {
		t.Fatal(err)
	}
	if noCache {
		req.Header.Set("Cache-Control", "no-cache")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := strconv.ParseUint(resp.Header.Get("X-Inferray-Generation"), 10, 64)
	return resp.StatusCode, body, resp.Header.Get("X-Inferray-Cache"), gen
}

// postUpdate issues one SPARQL UPDATE and returns the response's store
// generation.
func postUpdate(t *testing.T, ts *httptest.Server, text string) uint64 {
	t.Helper()
	resp, err := http.PostForm(ts.URL+"/update", url.Values{"update": {text}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("update status %d: %s", resp.StatusCode, body)
	}
	io.Copy(io.Discard, resp.Body)
	gen, _ := strconv.ParseUint(resp.Header.Get("X-Inferray-Generation"), 10, 64)
	return gen
}

// tripleBlock renders triples as the body of an INSERT/DELETE DATA op.
func tripleBlock(batch []rdf.Triple) string {
	var b strings.Builder
	for _, tr := range batch {
		fmt.Fprintf(&b, "%s %s %s .\n", tr.S, tr.P, tr.O)
	}
	return b.String()
}

// TestCacheEquivalenceInterleaved is the headline correctness proof for
// the query cache: under randomized interleavings of queries, INSERT
// DATA, and DELETE DATA — across every rule fragment with the hierarchy
// encoding on and off — every cached GET /query response must be
// byte-identical to a cold (Cache-Control: no-cache) evaluation at the
// same generation. A cached body that differs from the cold body is a
// stale hit; the test demands zero of them and a hit ratio above zero,
// which is also what the CI bench-smoke gate asserts by running it.
func TestCacheEquivalenceInterleaved(t *testing.T) {
	fragments := []inferray.Fragment{
		inferray.RhoDF, inferray.RDFSDefault, inferray.RDFSFull,
		inferray.RDFSPlus, inferray.RDFSPlusFull,
	}
	queries := []string{
		`SELECT ?s ?c WHERE { ?s ` + rdf.RDFType + ` ?c }`,
		`SELECT ?a ?b WHERE { ?a ` + rdf.RDFSSubClassOf + ` ?b }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?s ` + rdf.RDFType + ` ?c }`,
		`ASK { ?a ` + rdf.RDFSSubPropertyOf + ` ?b }`,
	}
	totalHits, staleHits := 0, 0
	for _, fragment := range fragments {
		for _, encoded := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/encoding=%v", fragment, encoded), func(t *testing.T) {
				for seed := int64(0); seed < 2; seed++ {
					rng := rand.New(rand.NewSource(seed*131 + 11))
					pool := datagen.RandomOntology(rng, datagen.RandomConfig{
						Classes:   4 + rng.Intn(5),
						Props:     3 + rng.Intn(4),
						Instances: 5 + rng.Intn(6),
						Schema:    8 + rng.Intn(10),
						Data:      10 + rng.Intn(20),
						Plus:      fragment.UsesSameAs(),
					})
					r := inferray.New(
						inferray.WithFragment(fragment),
						inferray.WithHierarchyEncoding(encoded),
					)
					cut := len(pool) * 2 / 3
					r.AddTriples(pool[:cut])
					if _, err := r.Materialize(); err != nil {
						t.Fatal(err)
					}
					asserted := append([]rdf.Triple(nil), pool[:cut]...)
					rest := pool[cut:]
					ts := httptest.NewServer(New(r).Handler())

					check := func(op int) {
						for _, q := range queries {
							// First request primes or hits the cache; the
							// no-cache request is always a cold evaluation.
							code1, body1, state, gen1 := tierGet(t, ts, q, false)
							code2, body2, _, gen2 := tierGet(t, ts, q, true)
							if code1 != http.StatusOK || code2 != http.StatusOK {
								t.Fatalf("op %d: status %d/%d for %q", op, code1, code2, q)
							}
							if gen1 != gen2 {
								t.Fatalf("op %d: generation moved %d -> %d with no write (query %q)", op, gen1, gen2, q)
							}
							if state == "hit" {
								totalHits++
								if string(body1) != string(body2) {
									staleHits++
									t.Errorf("op %d seed %d: STALE HIT at generation %d for %q:\ncached: %s\ncold:   %s",
										op, seed, gen1, q, body1, body2)
								}
							} else if string(body1) != string(body2) {
								t.Errorf("op %d seed %d: miss body diverged from cold body for %q", op, seed, q)
							}
						}
					}

					check(-1)
					// Prime once more so the next round of queries can hit.
					check(-1)
					for op := 0; op < 6; op++ {
						var wroteGen uint64
						if len(rest) > 0 && rng.Intn(2) == 0 {
							n := 1 + rng.Intn(4)
							if n > len(rest) {
								n = len(rest)
							}
							wroteGen = postUpdate(t, ts, "INSERT DATA {\n"+tripleBlock(rest[:n])+"}")
							asserted = append(asserted, rest[:n]...)
							rest = rest[n:]
						} else if len(asserted) > 0 {
							n := 1 + rng.Intn(3)
							batch := make([]rdf.Triple, 0, n)
							for i := 0; i < n; i++ {
								batch = append(batch, asserted[rng.Intn(len(asserted))])
							}
							wroteGen = postUpdate(t, ts, "DELETE DATA {\n"+tripleBlock(batch)+"}")
						}
						// Read-your-writes: responses after the write carry a
						// generation at least as new as the write's.
						_, _, _, gen := tierGet(t, ts, queries[0], false)
						if gen < wroteGen {
							t.Fatalf("op %d: response generation %d older than the preceding write's %d", op, gen, wroteGen)
						}
						check(op)
						check(op) // second pass over the same generation must produce hits
						if t.Failed() {
							ts.Close()
							return
						}
					}
					ts.Close()
				}
			})
		}
	}
	if staleHits != 0 {
		t.Fatalf("stale hits: %d", staleHits)
	}
	if totalHits == 0 {
		t.Fatal("cache hit ratio is zero: the equivalence run never exercised a cached response")
	}
	t.Logf("cache equivalence: %d hits, %d stale", totalHits, staleHits)
}

// TestConcurrentCachedQueryUpdate race-hammers the serving tier:
// concurrent cached readers against UPDATE writers against a mid-stream
// checkpoint on a durable reasoner. Each client asserts read-your-writes
// through the generation header — a response observed after a write
// completes must carry a generation at least the write's — and that its
// own sequence of generations never moves backwards (a backwards step
// would be a stale cache hit).
func TestConcurrentCachedQueryUpdate(t *testing.T) {
	dir := t.TempDir()
	r, err := inferray.Open(
		inferray.WithFragment(inferray.RDFSPlus),
		inferray.WithDurability(dir, inferray.DurabilityOptions{Sync: "none"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	base := `
<subOrgOf> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2002/07/owl#TransitiveProperty> .
<worksFor> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <memberOf> .
<DeptCS> <subOrgOf> <Univ0> .
<alice> <worksFor> <DeptCS> .
`
	if err := r.LoadNTriples(strings.NewReader(base)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(r).Handler())
	defer ts.Close()

	const (
		readers = 6
		writers = 2
		rounds  = 25
	)
	queries := []string{
		`SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`,
		`SELECT ?d ?u WHERE { ?d <subOrgOf> ?u }`,
		`ASK { <alice> <memberOf> <DeptCS> }`,
	}
	var wg sync.WaitGroup
	errc := make(chan error, readers+writers+1)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lastGen := uint64(0)
			for i := 0; i < rounds; i++ {
				q := queries[(g+i)%len(queries)]
				req, _ := http.NewRequest(http.MethodGet, ts.URL+"/query?query="+url.QueryEscape(q), nil)
				if i%5 == 4 {
					req.Header.Set("Cache-Control", "no-cache")
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("reader %d: status %d", g, resp.StatusCode)
					return
				}
				gen, _ := strconv.ParseUint(resp.Header.Get("X-Inferray-Generation"), 10, 64)
				if gen < lastGen {
					errc <- fmt.Errorf("reader %d: generation went backwards %d -> %d (stale cache hit)", g, lastGen, gen)
					return
				}
				lastGen = gen
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				triple := fmt.Sprintf("<w%d-%d> <worksFor> <DeptCS>", g, i)
				resp, err := http.PostForm(ts.URL+"/update",
					url.Values{"update": {"INSERT DATA { " + triple + " . }"}})
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				wroteGen, _ := strconv.ParseUint(resp.Header.Get("X-Inferray-Generation"), 10, 64)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("writer %d: status %d", g, resp.StatusCode)
					return
				}
				// Read-your-writes: a query issued after the write completed
				// must answer at a generation >= the write's, hit or miss.
				code, _, _, gen := tierGet(t, ts, queries[g%len(queries)], false)
				if code != http.StatusOK {
					errc <- fmt.Errorf("writer %d: post-write query status %d", g, code)
					return
				}
				if gen < wroteGen {
					errc <- fmt.Errorf("writer %d: post-write read at generation %d < write's %d (stale cache hit)", g, gen, wroteGen)
					return
				}
			}
		}(g)
	}
	// Mid-stream checkpoints while readers and writers are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			time.Sleep(10 * time.Millisecond)
			resp, err := http.Post(ts.URL+"/checkpoint", "", nil)
			if err != nil {
				errc <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("checkpoint: status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestCacheHeadersAndInvalidation covers the cache lifecycle a client
// sees: miss then hit with identical bytes, bypass on Cache-Control:
// no-cache and on POST, and a write moving the generation so the next
// read misses and reflects the new data.
func TestCacheHeadersAndInvalidation(t *testing.T) {
	ts, _ := newTestServer(t)
	q := `SELECT ?who WHERE { ?who <memberOf> <DeptCS> }`

	code, body1, state, gen1 := tierGet(t, ts, q, false)
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("first read: status %d, cache %q", code, state)
	}
	_, body2, state, gen2 := tierGet(t, ts, q, false)
	if state != "hit" {
		t.Fatalf("second read: cache %q, want hit", state)
	}
	if string(body1) != string(body2) || gen1 != gen2 {
		t.Fatalf("hit differs from miss: %q vs %q (gen %d vs %d)", body1, body2, gen1, gen2)
	}
	if _, _, state, _ = tierGet(t, ts, q, true); state != "bypass" {
		t.Fatalf("no-cache read: cache %q, want bypass", state)
	}
	resp, err := http.PostForm(ts.URL+"/query", url.Values{"query": {q}})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Inferray-Cache"); got != "bypass" {
		t.Fatalf("POST query: cache %q, want bypass", got)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	wroteGen := postUpdate(t, ts, `INSERT DATA { <bob> <worksFor> <DeptCS> . }`)
	if wroteGen <= gen1 {
		t.Fatalf("write generation %d did not advance past %d", wroteGen, gen1)
	}
	_, body3, state, gen3 := tierGet(t, ts, q, false)
	if state != "miss" {
		t.Fatalf("post-write read: cache %q, want miss (generation changed)", state)
	}
	if gen3 < wroteGen {
		t.Fatalf("post-write read at generation %d < write's %d", gen3, wroteGen)
	}
	if !strings.Contains(string(body3), "bob") {
		t.Fatalf("post-write read does not include the write: %s", body3)
	}
}

// TestRateLimit429 exercises both budgets: a client that exhausts its
// /query bucket gets 429 + Retry-After while the write budget stays
// open, and refilling grants again.
func TestRateLimit429(t *testing.T) {
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	if err := r.LoadNTriples(strings.NewReader("<a> <p> <b> .\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(r, Config{
		CacheEntries: 16,
		QueryRPS:     0.5, QueryBurst: 2,
		UpdateRPS: 100, UpdateBurst: 100,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := `ASK { <a> <p> <b> }`
	for i := 0; i < 2; i++ {
		if code, _, _, _ := tierGet(t, ts, q, false); code != http.StatusOK {
			t.Fatalf("request %d inside burst: status %d", i, code)
		}
	}
	resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over burst: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive whole-second value", ra)
	}
	// The write budget is independent: an update still goes through.
	postUpdate(t, ts, `INSERT DATA { <c> <p> <d> . }`)

	st := serverStats(t, ts)
	if st.Ratelimit == nil || st.Ratelimit.Query.Limited == 0 {
		t.Fatalf("stats ratelimit block = %+v, want limited > 0", st.Ratelimit)
	}
}

// TestRateLimitForwardedKeying checks X-Forwarded-For is only honored
// behind the opt-in trust flag: trusted, two forwarded addresses get
// separate buckets; untrusted, the header is ignored and both spend
// from the peer-address bucket.
func TestRateLimitForwardedKeying(t *testing.T) {
	newLimited := func(trust bool) *httptest.Server {
		r := inferray.New()
		if err := r.LoadNTriples(strings.NewReader("<a> <p> <b> .\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Materialize(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewWithConfig(r, Config{
			QueryRPS: 0.001, QueryBurst: 1, TrustForwarded: trust,
		}).Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	get := func(ts *httptest.Server, xff string) int {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/query?query="+url.QueryEscape(`ASK { <a> <p> <b> }`), nil)
		if xff != "" {
			req.Header.Set("X-Forwarded-For", xff)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	trusted := newLimited(true)
	if code := get(trusted, "10.0.0.1"); code != http.StatusOK {
		t.Fatalf("first client: %d", code)
	}
	if code := get(trusted, "10.0.0.2, 192.168.0.1"); code != http.StatusOK {
		t.Fatalf("second client (distinct XFF) should have its own bucket: %d", code)
	}
	if code := get(trusted, "10.0.0.1"); code != http.StatusTooManyRequests {
		t.Fatalf("first client's second request: %d, want 429", code)
	}

	untrusted := newLimited(false)
	if code := get(untrusted, "10.0.0.1"); code != http.StatusOK {
		t.Fatalf("untrusted first: %d", code)
	}
	if code := get(untrusted, "10.0.0.2"); code != http.StatusTooManyRequests {
		t.Fatalf("untrusted must ignore XFF and share the peer bucket: %d, want 429", code)
	}
}

// TestAdmission503 drives the max-in-flight semaphore directly: with
// one slot held by a parked request, the next is shed with 503 +
// Retry-After, and releasing the slot admits again.
func TestAdmission503(t *testing.T) {
	r := inferray.New()
	s := NewWithConfig(r, Config{MaxInFlight: 1})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	h := s.admitted(func(w http.ResponseWriter, req *http.Request) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	})

	go func() {
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/query", nil))
	}()
	<-started

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with the semaphore full, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	close(release)
	// The parked request drains its slot; eventually admission resumes.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/query", nil))
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("semaphore never freed: status %d", rec.Code)
		}
		time.Sleep(time.Millisecond)
	}
	if s.admShed.Value() == 0 {
		t.Fatal("shed counter did not move")
	}
}

// TestQueryTimeout504 checks the per-request deadline: a server with a
// nanosecond budget answers 504 and counts the abort.
func TestQueryTimeout504(t *testing.T) {
	r := inferray.New()
	if err := r.LoadNTriples(strings.NewReader("<a> <p> <b> .\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(r, Config{QueryTimeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s <p> ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	st := serverStats(t, ts)
	if st.Admission == nil || st.Admission.DeadlineExceeded == 0 {
		t.Fatalf("stats admission block = %+v, want deadline_exceeded > 0", st.Admission)
	}
}

// TestRowlessJoinTimesOut: the deadline reaches a walk that produces no
// rows. On LUBM-200k this join probes every table for each of ≈25,000
// ⟨student, course⟩ pairs (tens of milliseconds) and matches nothing;
// with a 1 ms budget it must answer 504, not a late empty 200.
func TestRowlessJoinTimesOut(t *testing.T) {
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	r.AddTriples(datagen.LUBM(200_000, 1))
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithConfig(r, Config{QueryTimeout: time.Millisecond}).Handler())
	defer ts.Close()
	join := `SELECT ?s WHERE { ?s <http://example.org/lubm/takesCourse> ?c . ?c ?p ?s }`
	resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(join))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
}

// serverStats fetches and decodes /stats.
func serverStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatsAndMetricsServingTier asserts the tier surfaces in /stats
// (generation, cache block) and /metrics (inferray_cache_* families).
func TestStatsAndMetricsServingTier(t *testing.T) {
	ts, _ := newTestServer(t)
	q := `ASK { <alice> <memberOf> <DeptCS> }`
	tierGet(t, ts, q, false)
	tierGet(t, ts, q, false)

	st := serverStats(t, ts)
	if st.Cache == nil {
		t.Fatal("/stats has no cache block with the cache enabled")
	}
	if st.Cache.Hits == 0 || st.Cache.Entries == 0 {
		t.Fatalf("cache block = %+v, want hits and entries > 0", st.Cache)
	}
	if st.Generation == 0 {
		t.Fatal("/stats generation is zero after a materialization")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, family := range []string{"inferray_cache_hits_total", "inferray_cache_entries", "inferray_ratelimit_limited_total", "inferray_admission_shed_total"} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %s", family)
		}
	}

	// Each cache event is counted once, inside the cache, and both
	// surfaces read that count: after a miss, a hit, a no-cache bypass
	// and a body too large to store (a miss, then a bypass) /stats and
	// /metrics must report the same — and the exact — numbers.
	_, r := newTestServer(t)
	small := httptest.NewServer(NewWithConfig(r, Config{CacheEntries: 16, CacheEntryBytes: 400}).Handler())
	defer small.Close()
	for i, want := range []string{"miss", "hit"} {
		if _, _, state, _ := tierGet(t, small, q, false); state != want {
			t.Fatalf("request %d: X-Inferray-Cache %q, want %q", i, state, want)
		}
	}
	if _, _, state, _ := tierGet(t, small, q, true); state != "bypass" {
		t.Fatalf("no-cache request: X-Inferray-Cache %q, want bypass", state)
	}
	if _, big, state, _ := tierGet(t, small, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, false); state != "bypass" {
		t.Fatalf("oversized response (%d bytes): X-Inferray-Cache %q, want bypass", len(big), state)
	}
	cs := serverStats(t, small).Cache
	if cs == nil || cs.Hits != 1 || cs.Misses != 2 || cs.Bypassed != 2 {
		t.Fatalf("/stats cache block = %+v, want 1 hit, 2 misses, 2 bypassed", cs)
	}
	exposition := scrape(t, small)
	for family, want := range map[string]uint64{
		"inferray_cache_hits_total":     cs.Hits,
		"inferray_cache_misses_total":   cs.Misses,
		"inferray_cache_bypassed_total": cs.Bypassed,
	} {
		if !strings.Contains(exposition, fmt.Sprintf("# TYPE %s counter\n%s %d\n", family, family, want)) {
			t.Errorf("/metrics %s disagrees with /stats (%d) or is not a counter", family, want)
		}
	}
}

// TestSlowReaderCannotHoldConnection is the regression test for the
// connection-timeout satellite: a client that sends a request and then
// stops reading (and never sends another) must have its connection
// closed by the server's WriteTimeout/IdleTimeout, not hold it forever.
func TestSlowReaderCannotHoldConnection(t *testing.T) {
	r := inferray.New()
	// Enough rows that the response body (~1.5 MB) overflows kernel
	// socket buffers, so an unread response leaves the server's write
	// blocked until WriteTimeout trips.
	var doc strings.Builder
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&doc, "<s%d> <p> \"%s-%d\" .\n", i, strings.Repeat("x", 200), i)
	}
	if err := r.LoadNTriples(strings.NewReader(doc.String())); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(r, Config{
		CacheEntries: 16,
		IdleTimeout:  300 * time.Millisecond,
		WriteTimeout: 500 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := url.QueryEscape(`SELECT ?s ?o WHERE { ?s <p> ?o }`)
	fmt.Fprintf(conn, "GET /query?query=%s HTTP/1.1\r\nHost: x\r\n\r\n", q)

	// Read nothing for well past WriteTimeout, then drain: the server
	// must have aborted the connection, so the drain hits EOF/reset in
	// bounded time instead of blocking forever.
	time.Sleep(1200 * time.Millisecond)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := io.Copy(io.Discard, bufio.NewReader(conn))
	if err == nil {
		// Clean EOF: the server closed the connection. Also acceptable.
		t.Logf("connection closed cleanly after %d bytes", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open and silent after the timeouts (drained %d bytes)", n)
	} else {
		t.Logf("connection aborted by server after %d bytes: %v", n, err)
	}
	cancel()
	<-done
}

// TestConcurrentObjectQueriesWhileSplicing is the serving-tier half of
// the in-place write path's race check: uncached HTTP readers scan a
// property by object and a class by its visible subjects — both served
// from lists a write now patches in place — while a writer posts
// single-triple INSERT DATA / DELETE DATA over a LUBM closure long enough
// for every one of them to be spliced. Every answer must hold the base
// rows (an inserted student comes and goes), and /metrics must show the
// caches were patched, not rebuilt.
func TestConcurrentObjectQueriesWhileSplicing(t *testing.T) {
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	triples := datagen.LUBM(20_000, 1)
	r.AddTriples(triples)
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	var like rdf.Triple
	for _, tr := range triples {
		if tr.P == lubmIRI("takesCourse") {
			like = tr
			break
		}
	}
	ts := httptest.NewServer(New(r).Handler())
	defer ts.Close()
	queries := []string{
		fmt.Sprintf(`SELECT ?s WHERE { ?s %s %s }`, like.P, like.O),
		fmt.Sprintf(`SELECT ?s WHERE { ?s a %s }`, lubmIRI("Student")),
	}
	rows := func(body []byte) int { return bytes.Count(body, []byte(`"s":`)) }
	base := make([]int, len(queries))
	for i, q := range queries {
		_, body, _, _ := tierGet(t, ts, q, true)
		if base[i] = rows(body); base[i] == 0 {
			t.Fatalf("%s: no rows", q)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Not tierGet: it may call t.Fatal, and this is not the test's
				// goroutine.
				k := i % len(queries)
				req, _ := http.NewRequest(http.MethodGet, ts.URL+"/query?query="+url.QueryEscape(queries[k]), nil)
				req.Header.Set("Cache-Control", "no-cache")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if n := rows(body); err != nil || resp.StatusCode != http.StatusOK || n < base[k] || n > base[k]+1 {
					t.Errorf("%s: status %d, %d rows, base %d, %v", queries[k], resp.StatusCode, n, base[k], err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 40; i++ {
		tr := fmt.Sprintf("<http://example.org/churn/s%d> %s %s", i, like.P, like.O)
		postUpdate(t, ts, "INSERT DATA { "+tr+" }")
		postUpdate(t, ts, "DELETE DATA { "+tr+" }")
	}
	close(stop)
	wg.Wait()
	metrics := scrape(t, ts)
	for _, want := range []string{
		`inferray_store_os_cache_total{event="patched"}`,
		`inferray_store_merges_total{path="splice"}`,
		`inferray_reasoner_rederive_pairs_total{kind="seeds"}`,
		`inferray_reasoner_rederive_pairs_total{kind="kept"}`,
		`inferray_write_lock_hold_seconds_count`,
		`inferray_read_lock_wait_seconds_count`,
	} {
		if !regexp.MustCompile(regexp.QuoteMeta(want) + ` [1-9]`).MatchString(metrics) {
			t.Errorf("after 80 single-triple writes, %s is zero or missing", want)
		}
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"inferray"
	"inferray/internal/rdf"
)

// oneBuffer is the results document as one json.Marshal over the rows
// ExecFunc delivers, each cell through termBinding: the bytes the paged
// writer must reproduce.
func oneBuffer(t *testing.T, r *inferray.Reasoner, text string) []byte {
	t.Helper()
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]binding `json:"bindings"`
		} `json:"results"`
	}
	doc.Results.Bindings = []map[string]binding{}
	res, err := r.ExecFunc(text, 0, nil, func(row map[string]string) bool {
		m := make(map[string]binding, len(row))
		for name, term := range row {
			m[name] = termBinding(term)
		}
		doc.Results.Bindings = append(doc.Results.Bindings, m)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	doc.Head.Vars = res.Vars
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// pagedObject is the i-th row's object: IRIs, plain literals, literals
// that need escaping and the golden notes, padded by a varying amount so
// the rows end at a different offset on every page.
func pagedObject(i int) string {
	pad := strings.Repeat("x", i%173)
	switch i % 4 {
	case 0:
		return fmt.Sprintf("<http://example.org/o%d/%s>", i, pad)
	case 1:
		return fmt.Sprintf(`"%d %s"`, i, pad)
	case 2:
		return fmt.Sprintf(`"%d <%s> & \" café"@en`, i, pad)
	default:
		return goldenNotes[i%len(goldenNotes)]
	}
}

// TestResultPagesMatchOneBuffer: a results document several pages long,
// with one literal larger than a page, is byte for byte the document one
// json.Marshal makes, whether it is served from the pages (cache off, or
// Cache-Control: no-cache) or from the one body the cache keeps, and its
// Content-Length is its length.
func TestResultPagesMatchOneBuffer(t *testing.T) {
	r := inferray.New(inferray.WithFragment(inferray.RhoDF))
	const p = "<http://example.org/p>"
	for i := 0; i < 4000; i++ {
		if err := r.Add(fmt.Sprintf("<http://example.org/r%d>", i), p, pagedObject(i)); err != nil {
			t.Fatal(err)
		}
	}
	big := `"` + strings.Repeat(`<a>&b \" \\ \t é日本 `, 10000) + `"@ja`
	if err := r.Add("<http://example.org/big>", p, big); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	text := "SELECT ?s ?o WHERE { ?s " + p + " ?o }"
	want := oneBuffer(t, r, text)

	st := &resultStream{}
	if _, err := r.Exec(context.Background(), text, 0, st.head, st.row); err != nil {
		t.Fatal(err)
	}
	pages := st.finish()
	if len(pages) < 3 {
		t.Fatalf("%d pages for a %d-byte document, want at least 3", len(pages), len(want))
	}
	grown := false
	for i, pg := range pages[:len(pages)-1] {
		if len(pg) <= pageSize-pageSlack {
			t.Errorf("page %d closed at %d bytes with room for another row", i, len(pg))
		}
		grown = grown || len(pg) > pageSize
	}
	if !grown && len(pages[len(pages)-1]) <= pageSize {
		t.Error("no page grew past its size to hold the oversized row")
	}
	if got := bytes.Join(pages, nil); !bytes.Equal(got, want) {
		t.Fatalf("pages join to %d bytes that differ from the one-buffer document (%d bytes)", len(got), len(want))
	}

	get := func(ts *httptest.Server, noCache bool) (string, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/query?query="+url.QueryEscape(text), nil)
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
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, err %v", resp.StatusCode, err)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
		}
		return resp.Header.Get("X-Inferray-Cache"), body
	}
	on := httptest.NewServer(NewWithConfig(r, Config{CacheEntries: 16}).Handler())
	defer on.Close()
	off := httptest.NewServer(NewWithConfig(r, Config{}).Handler())
	defer off.Close()
	for _, c := range []struct {
		ts      *httptest.Server
		noCache bool
		state   string
	}{
		{off, false, "bypass"},
		{on, false, "miss"},
		{on, false, "hit"},
		{on, true, "bypass"},
	} {
		state, body := get(c.ts, c.noCache)
		if state != c.state {
			t.Errorf("X-Inferray-Cache %q, want %q", state, c.state)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s response: %d bytes that differ from the one-buffer document (%d bytes)", c.state, len(body), len(want))
		}
	}
}

// FuzzAppendBinding: the direct binding writer makes exactly the bytes
// json.Marshal makes of termBinding, for any term.
func FuzzAppendBinding(f *testing.F) {
	for _, note := range goldenNotes {
		f.Add(note)
	}
	for _, term := range []string{"<>", "<a", "_:", "\"\"", "\"x\"^^<", "\"\xff\"@en", "<http://x/ >", "plain"} {
		f.Add(term)
	}
	f.Fuzz(func(t *testing.T, term string) {
		want, err := json.Marshal(termBinding(term))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendBinding([]byte("{"), term)[1:]; !bytes.Equal(got, want) {
			t.Fatalf("appendBinding(%q) = %s, json.Marshal = %s", term, got, want)
		}
	})
}

// TestQueryResponseAllocBudget gates what a large /query response costs
// beyond its own bytes: a cache-off `?s a C` over 50 k subjects through
// the handler allocates at most 1.25× the body and less than one object
// per row. The one buffer regrown by doubling that the pages replaced
// allocated 5.9× here.
func TestQueryResponseAllocBudget(t *testing.T) {
	const n = 50_000
	r := inferray.New(inferray.WithFragment(inferray.RDFSDefault))
	triples := make([]inferray.Triple, n)
	for i := range triples {
		triples[i] = inferray.Triple{S: "<http://example.org/s" + strconv.Itoa(i) + ">", P: rdf.RDFType, O: "<C>"}
	}
	r.AddTriples(triples)
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	h := NewWithConfig(r, Config{}).Handler()
	target := "/query?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s a <C> }`)

	// The first request builds what a scan of the class keeps (its
	// ⟨o,s⟩ list) and gives the body's size.
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, target, nil))
	body := warm.Body.Bytes()
	if warm.Code != http.StatusOK || bytes.Count(body, []byte(`"type":"uri"`)) != n {
		t.Fatalf("status %d, %d bytes: want %d rows", warm.Code, len(body), n)
	}

	const runs = 4
	recs := make([]*httptest.ResponseRecorder, runs)
	reqs := make([]*http.Request, runs)
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		recs[i].Body.Grow(len(body)) // the recorder's own copy is not the server's cost
		reqs[i] = httptest.NewRequest(http.MethodGet, target, nil)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range recs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	for _, rec := range recs {
		if !bytes.Equal(rec.Body.Bytes(), body) || rec.Header().Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Fatalf("response differs from the first: %d bytes, Content-Length %q", rec.Body.Len(), rec.Header().Get("Content-Length"))
		}
	}
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	if ratio := perQuery / float64(len(body)); ratio > 1.25 {
		t.Errorf("%.0f bytes allocated for a %d-byte response (%.2f×), budget 1.25×", perQuery, len(body), ratio)
	}
	if allocs/n >= 1 {
		t.Errorf("%.0f allocations for %d rows, budget < 1 per row", allocs, n)
	}
	t.Logf("%d-byte response: %.0f bytes (%.3f×), %.0f allocations per query", len(body), perQuery, perQuery/float64(len(body)), allocs)
}

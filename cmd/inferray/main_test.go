package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"inferray"
	"inferray/internal/server"
)

func runCLI(t *testing.T, args []string, stdin string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err = run(context.Background(), args, strings.NewReader(stdin), &out, &errBuf)
	return out.String(), errBuf.String(), err
}

// TestCLIVersionFlag checks the top-level -version flag: the module
// version (devel under go test) and the Go toolchain.
func TestCLIVersionFlag(t *testing.T) {
	out, _, err := runCLI(t, []string{"-version"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "inferray ") || !strings.Contains(out, "go1.") {
		t.Fatalf("version output %q", out)
	}
}

const sampleNT = `<a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <b> .
<b> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <c> .
<x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <a> .
`

func TestCLIStdinStdout(t *testing.T) {
	out, _, err := runCLI(t, []string{"-rules", "rdfs-default"}, sampleNT)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <c> .") {
		t.Fatalf("closure missing inferred triple:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 6 {
		t.Fatalf("expected 6 output triples, got %d", lines)
	}
}

func TestCLIStatsAndQuiet(t *testing.T) {
	out, errOut, err := runCLI(t, []string{"-stats", "-quiet"}, sampleNT)
	if err != nil {
		t.Fatal(err)
	}
	if out != "" {
		t.Fatal("quiet mode must suppress triples")
	}
	if !strings.Contains(errOut, "inferred=3") {
		t.Fatalf("stats line wrong: %s", errOut)
	}
	// a⊑c, x type b and x type c are virtual under the hierarchy
	// encoding; only the 3 input triples are physically stored.
	if !strings.Contains(errOut, "materialized=3 virtual=3 encoded=true") {
		t.Fatalf("stats line lacks encoding figures: %s", errOut)
	}
	// Every line is key=value fields a reader keys on: no key twice.
	for _, line := range strings.Split(strings.TrimSpace(errOut), "\n") {
		seen := map[string]bool{}
		for _, field := range strings.Fields(line) {
			key, _, _ := strings.Cut(field, "=")
			if seen[key] {
				t.Fatalf("key %q repeats on the stats line: %s", key, line)
			}
			seen[key] = true
		}
	}
}

func TestCLITurtleFormat(t *testing.T) {
	ttl := "@prefix ex: <http://e/> .\n@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\nex:A rdfs:subClassOf ex:B .\nex:x a ex:A .\n"
	out, _, err := runCLI(t, []string{"-format", "turtle"}, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<http://e/x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/B>") {
		t.Fatalf("turtle input not inferred:\n%s", out)
	}
}

func TestCLIFileIOAndExtensionDetection(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "data.ttl")
	outPath := filepath.Join(dir, "out.nt")
	ttl := "@prefix ex: <http://e/> .\nex:a ex:p ex:b .\n"
	if err := os.WriteFile(inPath, []byte(ttl), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, []string{"-in", inPath, "-out", outPath}, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<http://e/a> <http://e/p> <http://e/b> .") {
		t.Fatalf("output file wrong: %s", data)
	}
}

func TestCLIErrors(t *testing.T) {
	if _, _, err := runCLI(t, []string{"-rules", "owl-dl"}, ""); err == nil {
		t.Error("unknown fragment accepted")
	}
	if _, _, err := runCLI(t, []string{"-format", "rdfxml"}, ""); err == nil {
		t.Error("unknown format accepted")
	}
	if _, _, err := runCLI(t, nil, "not a triple\n"); err == nil {
		t.Error("syntax error not propagated")
	}
	if _, _, err := runCLI(t, []string{"-in", "/nonexistent/file.nt"}, ""); err == nil {
		t.Error("missing input file accepted")
	}
}

func TestCLISequentialFlag(t *testing.T) {
	out, _, err := runCLI(t, []string{"-sequential"}, sampleNT)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <c> .") {
		t.Fatal("sequential run lost inferences")
	}
}

func TestCLISelectQuery(t *testing.T) {
	out, _, err := runCLI(t, []string{
		"-select", "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <c> }",
	}, sampleNT)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "x=<x>") {
		t.Fatalf("select output wrong:\n%s", out)
	}
}

// -select prints columns in projection order, supports the extended
// dialect, and answers ASK with true/false.
func TestCLISelectDialect(t *testing.T) {
	out, _, err := runCLI(t, []string{
		"-select", `SELECT ?t ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t . FILTER(?t != <a>) } ORDER BY ?t`,
	}, sampleNT)
	if err != nil {
		t.Fatal(err)
	}
	want := "t=<b>\tx=<x>\nt=<c>\tx=<x>\n"
	if out != want {
		t.Fatalf("select output:\n%q\nwant:\n%q", out, want)
	}

	out, _, err = runCLI(t, []string{"-select", `ASK { <x> a <c> }`}, sampleNT)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "true" {
		t.Fatalf("ask output: %q", out)
	}
	out, _, err = runCLI(t, []string{"-select", `ASK { <x> a <nope> }`}, sampleNT)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "false" {
		t.Fatalf("ask output: %q", out)
	}
}

// TestCLIDeltaFlag: a base file plus two -delta files must produce the
// same closure as concatenating everything into one input, and the
// delta batches must report incremental materializations.
func TestCLIDeltaFlag(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.nt")
	d1 := filepath.Join(dir, "day1.nt")
	d2 := filepath.Join(dir, "day2.nt")
	writeFile := func(path, data string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(base, "<a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <b> .\n")
	writeFile(d1, "<b> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <c> .\n")
	writeFile(d2, "<x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <a> .\n")

	out, errOut, err := runCLI(t, []string{"-in", base, "-delta", d1, "-delta", d2, "-stats"}, "")
	if err != nil {
		t.Fatal(err)
	}
	oneShot, _, err := runCLI(t, nil, sampleNT)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(strings.TrimSpace(out), "\n")
	wantLines := strings.Split(strings.TrimSpace(oneShot), "\n")
	got := map[string]bool{}
	for _, l := range gotLines {
		got[l] = true
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("delta closure has %d triples, one-shot %d\n%s", len(gotLines), len(wantLines), out)
	}
	for _, l := range wantLines {
		if !got[l] {
			t.Errorf("delta closure missing %q", l)
		}
	}
	if !strings.Contains(errOut, "batch=initial incremental=false") {
		t.Errorf("missing initial stats line: %s", errOut)
	}
	if !strings.Contains(errOut, "incremental=true") {
		t.Errorf("delta batches did not run incrementally: %s", errOut)
	}
	if strings.Count(errOut, "fragment=") != 3 {
		t.Errorf("expected 3 stats lines, got: %s", errOut)
	}
	// Each batch's rounds follow its stats line, with what the rules
	// emitted beside what the merge kept, and the time split.
	if !strings.Contains(errOut, "  round=1 batch=initial fired=") || !strings.Contains(errOut, " emitted=") ||
		!strings.Contains(errOut, " maintain=") {
		t.Errorf("missing per-round lines: %s", errOut)
	}
	// ... and one store line per batch: merge paths and ⟨o,s⟩-cache events.
	if strings.Count(errOut, "  store batch=") != 3 || !strings.Contains(errOut, "  store batch=initial splice=0 rebuild=") {
		t.Errorf("missing per-batch store lines: %s", errOut)
	}
	// ... and one dict line per batch: the dictionary's bytes by part.
	if strings.Count(errOut, "  dict batch=") != 3 || !strings.Contains(errOut, "  dict batch=initial terms=") || !strings.Contains(errOut, " index_bytes=") {
		t.Errorf("missing per-batch dict lines: %s", errOut)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer: the serve goroutine
// writes its startup line while the test polls for it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestCLIServe is the end-to-end check of the serve subcommand: boot on
// a random port with a base dataset, answer a SPARQL SELECT over HTTP,
// accept an N-Triples delta that extends the closure incrementally,
// answer the extended query, and shut down gracefully on cancellation.
func TestCLIServe(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.nt")
	if err := os.WriteFile(base, []byte(sampleNT), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var errBuf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-in", base},
			strings.NewReader(""), &bytes.Buffer{}, &errBuf)
	}()

	// Wait for the startup line and extract the bound address.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server did not start: %q", errBuf.String())
		}
		if s := errBuf.String(); strings.Contains(s, " on 127.0.0.1:") {
			line := s[strings.Index(s, " on 127.0.0.1:")+4:]
			addr = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	baseURL := "http://" + addr

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(baseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b.String()
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}

	q := url.QueryEscape("SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <c> }")
	code, body := get("/query?query=" + q)
	if code != http.StatusOK || !strings.Contains(body, `"value":"x"`) {
		t.Fatalf("query response %d: %s", code, body)
	}

	// Delta: <y> is typed into the hierarchy; the incremental
	// materialization must propagate it to <c>. The domain statement gives
	// a rule something to emit, so the round counters move.
	delta := "<y> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <a> .\n" +
		"<knows> <http://www.w3.org/2000/01/rdf-schema#domain> <a> .\n<x> <knows> <y> .\n"
	resp, err := http.Post(baseURL+"/triples", "application/n-triples", strings.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Incremental bool `json:"incremental"`
		Inferred    int  `json:"inferred"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !dr.Incremental {
		t.Fatalf("delta response %d incremental=%t", resp.StatusCode, dr.Incremental)
	}

	code, body = get("/query?query=" + q)
	if code != http.StatusOK || !strings.Contains(body, `"value":"y"`) {
		t.Fatalf("post-delta query response %d: %s", code, body)
	}

	if code, body := get("/stats"); code != http.StatusOK || !strings.Contains(body, `"delta_batches":1`) {
		t.Fatalf("stats response %d: %s", code, body)
	}
	if code, body := get("/stats"); code != http.StatusOK || !strings.Contains(body, `"go_version":"go`) {
		t.Fatalf("stats missing build info %d: %s", code, body)
	}
	if code, body := get("/debug/tables?top=2"); code != http.StatusOK || !strings.Contains(body, `22-rdf-syntax-ns#type`) || !strings.Contains(body, `"index_bytes":`) {
		t.Fatalf("debug/tables response %d: %s", code, body)
	}

	// The startup line only prints after SetReady(true), so readiness
	// is observable as soon as the address is known.
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz status %d", code)
	}

	// End-to-end scrape: the exposition covers every layer's families.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	for _, family := range []string{
		"inferray_http_requests_total",
		"inferray_http_request_duration_seconds_bucket",
		"inferray_http_query_response_bytes_total",
		"inferray_http_query_write_seconds_bucket",
		"inferray_reasoner_materializations_total",
		"inferray_wal_appends_total",
		"inferray_query_solves_total",
		"inferray_query_evaluations_total",
		"inferray_build_info",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("metrics exposition missing family %q", family)
		}
	}
	// The Go runtime's own numbers, each a live reading.
	for _, family := range []string{
		"# TYPE inferray_go_heap_inuse_bytes gauge\ninferray_go_heap_inuse_bytes ",
		"# TYPE inferray_go_heap_live_bytes gauge\ninferray_go_heap_live_bytes ",
		"# TYPE inferray_go_gc_cycles_total counter\ninferray_go_gc_cycles_total ",
		"# TYPE inferray_go_gc_pause_seconds_total counter\ninferray_go_gc_pause_seconds_total ",
		"# TYPE inferray_go_goroutines gauge\ninferray_go_goroutines ",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("metrics exposition missing %q", family)
		}
	}
	// Nonzero readings: the runtime's, and the /query bodies this test
	// read (bytes written, writes timed).
	for _, gauge := range []string{"inferray_go_heap_inuse_bytes ", "inferray_go_goroutines ",
		"inferray_http_query_response_bytes_total ", "inferray_http_query_write_seconds_count "} {
		if i := strings.Index(body, "\n"+gauge); i < 0 || strings.HasPrefix(body[i+1+len(gauge):], "0\n") {
			t.Errorf("%s reads zero", gauge)
		}
	}
	// Where the time went, bytes-in to closure, one sample per phase.
	for _, phase := range []string{"parse", "encode", "normalize", "closure", "loop", "count"} {
		if sample := `inferray_reasoner_phase_seconds_total{phase="` + phase + `"} `; !strings.Contains(body, sample) {
			t.Errorf("metrics exposition missing %s", sample)
		}
	}
	// What the fixpoint's rules emitted against what its merges kept.
	for _, kind := range []string{"emitted", "kept"} {
		sample := `inferray_reasoner_round_pairs_total{kind="` + kind + `"} `
		if i := strings.Index(body, "\n"+sample); i < 0 || strings.HasPrefix(body[i+1+len(sample):], "0\n") {
			t.Errorf("metrics exposition missing %s, or it reads zero", sample)
		}
	}
	if t.Failed() {
		t.Fatalf("exposition:\n%s", body)
	}

	// pprof was not opted into: its surface must be absent.
	if code, _ := get("/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof mounted without -pprof: status %d", code)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
}

// -select over the SPARQL 1.1 expansion: OPTIONAL rows print with the
// unbound cell omitted (never as an empty "var=" column), and
// aggregate queries print their typed results.
func TestCLISelectUnboundAndAggregates(t *testing.T) {
	data := sampleNT + "<x> <score> \"5\" .\n<y> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <a> .\n"

	out, _, err := runCLI(t, []string{
		"-select", `SELECT ?s ?v WHERE { ?s a <a> OPTIONAL { ?s <score> ?v } } ORDER BY ?s`,
	}, data)
	if err != nil {
		t.Fatal(err)
	}
	want := "s=<x>\tv=\"5\"\ns=<y>\n"
	if out != want {
		t.Fatalf("optional output:\n%q\nwant:\n%q", out, want)
	}
	if strings.Contains(out, "v=\n") || strings.Contains(out, "v=\t") {
		t.Fatalf("unbound cell printed as empty value:\n%q", out)
	}

	out, _, err = runCLI(t, []string{
		"-select", `SELECT ?t (COUNT(*) AS ?n) WHERE { ?s a ?t } GROUP BY ?t ORDER BY DESC(?n) ?t LIMIT 1`,
	}, data)
	if err != nil {
		t.Fatal(err)
	}
	want = "t=<a>\tn=\"2\"^^<http://www.w3.org/2001/XMLSchema#integer>\n"
	if out != want {
		t.Fatalf("aggregate output:\n%q\nwant:\n%q", out, want)
	}
}

// TestCLIUpdateSubcommandLargeRequest pipes a request of more than
// 1 MiB to the update subcommand against an in-process server: every
// op reaches the server, the last one included.
func TestCLIUpdateSubcommandLargeRequest(t *testing.T) {
	r := inferray.New()
	ts := httptest.NewServer(server.New(r).Handler())
	defer ts.Close()

	var req strings.Builder
	ops := 0
	for req.Len() <= 1<<20 {
		req.WriteString("INSERT DATA {")
		for i := 0; i < 1000; i++ {
			fmt.Fprintf(&req, " <http://x/s%d> <http://x/p> <http://x/o> .", ops*1000+i)
		}
		req.WriteString(" } ;\n")
		ops++
	}
	req.WriteString("INSERT DATA { <http://x/after> <http://x/p> <http://x/o> }\n")
	ops++

	out, _, err := runCLI(t, []string{"update", "-addr", ts.URL}, req.String())
	if err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Ops int `json:"ops"`
	}
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("update output %q: %v", out, err)
	}
	if resp.Ops != ops {
		t.Fatalf("server ran %d ops, want %d", resp.Ops, ops)
	}
	if ok, err := r.Ask(`ASK { <http://x/after> ?p ?o }`); err != nil || !ok {
		t.Fatalf("last op lost: ask=%t err=%v", ok, err)
	}
}

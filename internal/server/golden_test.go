package server

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"inferray"
	"inferray/internal/datagen"
	"inferray/internal/rdf"
)

// sparqlResults is the SPARQL 1.1 Query Results JSON document as the
// tests decode it (the server writes it by hand in resultStream).
type sparqlResults struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]binding `json:"bindings"`
	} `json:"results"`
}

var updateGoldens = flag.Bool("update", false, "rewrite the /query body goldens under testdata/query")

const goldenNS = "http://example.org/lubm/"

func lubmIRI(local string) string { return "<" + goldenNS + local + ">" }

// goldenQueries are the /query shapes whose response bodies are pinned
// byte for byte: the seven classes of bench/catalog.go, then one query
// per row-pipeline corner (an unbound OPTIONAL cell, a VALUES cell the
// dictionary has never seen, BIND-computed terms, GROUP BY over an
// unbound key, DISTINCT over a projection, and literals that need every
// kind of JSON escaping). The goldens were recorded at the commit before
// the slot-row pipeline replaced the map-based one.
var goldenQueries = []struct{ name, text string }{
	{"ask_point", "ASK { " + lubmIRI("Student7") + " " + lubmIRI("memberOf") + " ?d }"},
	{"limit100", "SELECT ?x ?d WHERE { ?x " + lubmIRI("memberOf") + " ?d } LIMIT 100"},
	{"join2", "SELECT ?x ?d ?c WHERE { ?x " + lubmIRI("worksFor") + " ?d . ?x " + lubmIRI("teacherOf") + " ?c }"},
	{"topk", "SELECT ?x ?d WHERE { ?x " + lubmIRI("worksFor") + " ?d } ORDER BY DESC(?x) LIMIT 10"},
	{"count", "SELECT (COUNT(*) AS ?n) WHERE { ?x " + lubmIRI("teacherOf") + " ?c }"},
	{"type_scan", "SELECT ?x WHERE { ?x " + rdf.RDFType + " " + lubmIRI("Person") + " }"},
	{"groupby", "SELECT ?d (COUNT(*) AS ?n) WHERE { ?x " + lubmIRI("memberOf") + " ?d } GROUP BY ?d"},

	{"optional_unbound", "SELECT ?x ?c ?d WHERE { ?x " + lubmIRI("memberOf") + " ?d OPTIONAL { ?x " + lubmIRI("teacherOf") + " ?c } } LIMIT 300"},
	{"values_unknown", "SELECT ?x ?tag ?d WHERE { VALUES (?x ?tag) { (" + lubmIRI("Student0") + ` "never stored") (<http://example.org/nobody> "dropped") (` + lubmIRI("Student1") + " UNDEF) } ?x " + lubmIRI("memberOf") + " ?d }"},
	{"bind_literal", "SELECT ?x ?has ?tag WHERE { ?x " + lubmIRI("worksFor") + " ?d OPTIONAL { ?x " + lubmIRI("teacherOf") + " ?c } BIND(bound(?c) AS ?has) BIND(\"a<b>&c\" AS ?tag) } ORDER BY ?x ?c LIMIT 40"},
	{"groupby_unbound_key", "SELECT ?c (COUNT(?x) AS ?n) (MIN(?d) AS ?first) WHERE { ?x " + lubmIRI("worksFor") + " ?d OPTIONAL { ?x " + lubmIRI("headOf") + " ?c } } GROUP BY ?c ORDER BY DESC(?n) ?c"},
	{"distinct_projection", "SELECT DISTINCT ?d WHERE { ?x " + lubmIRI("memberOf") + " ?d }"},
	{"distinct_order_offset", "SELECT DISTINCT ?d ?c WHERE { ?x " + lubmIRI("worksFor") + " ?d OPTIONAL { ?x " + lubmIRI("headOf") + " ?c } } ORDER BY ?c DESC(?d) OFFSET 2 LIMIT 25"},
	{"union_star", "SELECT * WHERE { { ?x " + lubmIRI("headOf") + " ?d } UNION { ?y " + lubmIRI("subOrganizationOf") + " ?d FILTER(?d = " + lubmIRI("University0") + ") } }"},
	{"escaping", "SELECT ?o ?s WHERE { ?s <http://example.org/note> ?o } ORDER BY ?s"},
	{"duplicate_projection", "SELECT ?x ?x ?d WHERE { ?x " + lubmIRI("headOf") + " ?d } LIMIT 3"},
}

// goldenNotes are literals that exercise every branch of the results
// writer: HTML-sensitive bytes, JSON escapes, control characters,
// non-ASCII text, language tags and datatypes.
var goldenNotes = []string{
	`"plain"`,
	`"a<b>&c"`,
	`"quote \" backslash \\ tab \t newline \n"`,
	`"café   日本"@fr`,
	`"7"^^<http://www.w3.org/2001/XMLSchema#integer>`,
	"\"bell \\u0007 del \\u007F line \\u2028 raw \x01\"@en-GB",
	`_:b0`,
	`<http://example.org/a?b=1&c=<2>>`,
}

func goldenServer(t *testing.T) *httptest.Server {
	t.Helper()
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	r.AddTriples(datagen.LUBM(2000, 1))
	for i, o := range goldenNotes {
		r.Add("<http://example.org/n"+string(rune('a'+i))+">", "<http://example.org/note>", o)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithConfig(r, Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestQueryBodyGoldens asserts that every pinned query answers with
// exactly the bytes recorded in testdata/query — key order inside a
// binding object, escaping and row order included.
func TestQueryBodyGoldens(t *testing.T) {
	ts := goldenServer(t)
	for _, gq := range goldenQueries {
		resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(gq.text))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v: %s", gq.name, resp.StatusCode, err, body)
		}
		path := filepath.Join("testdata", "query", gq.name+".json")
		if *updateGoldens {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (record with -update at a known-good commit)", gq.name, err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s: body differs from %s (%d bytes, want %d)", gq.name, path, len(body), len(want))
		}
	}
}

package sparql

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, text string) *Query {
	t.Helper()
	q, err := ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestParseBasicSelect(t *testing.T) {
	q := mustParse(t, `
PREFIX ex: <http://e/>
SELECT ?who ?org WHERE {
  ?who ex:memberOf ?org .
  ?org a ex:Department .
}
LIMIT 10`)
	if q.Form != FormSelect {
		t.Fatalf("form = %d, want SELECT", q.Form)
	}
	if !reflect.DeepEqual(q.Vars, []string{"who", "org"}) {
		t.Fatalf("vars = %v", q.Vars)
	}
	want := [][3]string{
		{"?who", "<http://e/memberOf>", "?org"},
		{"?org", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>", "<http://e/Department>"},
	}
	if len(q.Groups) != 1 || !reflect.DeepEqual(q.Groups[0].Patterns, want) {
		t.Fatalf("groups = %+v", q.Groups)
	}
	if !q.HasLimit || q.Limit != 10 {
		t.Fatalf("limit = %d (has %t)", q.Limit, q.HasLimit)
	}
}

func TestParseSelectStar(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s ?p ?o }`)
	if q.Form != FormSelect {
		t.Fatalf("form = %d, want SELECT", q.Form)
	}
	if len(q.Vars) != 0 {
		t.Fatal("SELECT * must leave Vars empty")
	}
	if len(q.Groups) != 1 || len(q.Groups[0].Patterns) != 1 ||
		q.Groups[0].Patterns[0] != [3]string{"?s", "?p", "?o"} {
		t.Fatalf("groups = %+v", q.Groups)
	}
}

func TestParseLiterals(t *testing.T) {
	q := mustParse(t, `
PREFIX ex: <http://e/>
SELECT ?x WHERE {
  ?x ex:name "Alice" .
  ?x ex:motto "vive la vie"@fr .
  ?x ex:age "42"^^<http://www.w3.org/2001/XMLSchema#int>
}`)
	pats := q.Groups[0].Patterns
	if pats[0][2] != `"Alice"` {
		t.Errorf("plain literal: %q", pats[0][2])
	}
	if pats[1][2] != `"vive la vie"@fr` {
		t.Errorf("lang literal: %q", pats[1][2])
	}
	if pats[2][2] != `"42"^^<http://www.w3.org/2001/XMLSchema#int>` {
		t.Errorf("typed literal: %q", pats[2][2])
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q := mustParse(t, `prefix ex: <http://e/>
select distinct ?x where { ?x a ex:T } order by desc(?x) limit 3 offset 2`)
	if q.Form != FormSelect {
		t.Fatalf("form = %d, want SELECT", q.Form)
	}
	if q.Limit != 3 || q.Offset != 2 || !q.Distinct || len(q.Groups[0].Patterns) != 1 {
		t.Fatalf("q = %+v", q)
	}
	if len(q.OrderBy) != 1 || q.OrderBy[0].Var != "x" || !q.OrderBy[0].Desc {
		t.Fatalf("order = %+v", q.OrderBy)
	}
}

func TestParseComments(t *testing.T) {
	q := mustParse(t, `
# find everything
SELECT * WHERE {
  ?s ?p ?o . # any triple
}`)
	if len(q.Groups[0].Patterns) != 1 {
		t.Fatalf("q=%+v", q)
	}
}

func TestParseAsk(t *testing.T) {
	q := mustParse(t, `ASK { <a> <p> ?x }`)
	if q.Form != FormAsk || len(q.Groups[0].Patterns) != 1 {
		t.Fatalf("q = %+v", q)
	}
	q = mustParse(t, `ASK WHERE { <a> <p> ?x . FILTER(?x > 3) }`)
	if q.Form != FormAsk || len(q.Groups[0].Filters) != 1 {
		t.Fatalf("q = %+v", q)
	}
}

func TestParseUnion(t *testing.T) {
	q := mustParse(t, `SELECT ?x WHERE {
  { ?x <p> <A> . FILTER(?x != <z>) }
  UNION { ?x <q> <B> }
  UNION { ?x <r> <C> . ?x <s> <D> }
}`)
	if len(q.Groups) != 3 {
		t.Fatalf("groups = %d", len(q.Groups))
	}
	if len(q.Groups[0].Filters) != 1 || len(q.Groups[2].Patterns) != 2 {
		t.Fatalf("groups = %+v", q.Groups)
	}
}

func TestParseFilterForms(t *testing.T) {
	cases := []string{
		`SELECT ?x WHERE { ?x <p> ?y . FILTER(?y > 3) }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER(?y >= 3 && ?y < 10) }`,
		`SELECT ?x WHERE { ?x <p> ?y FILTER(?y = "a" || ?y != "b") }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER(!(?y = 4)) }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER regex(?y, "^a.*b$") }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER regex(?y, "abc", "i") }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER bound(?y) }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER(bound(?y) && ?y = <http://e/v>) }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER(?y <= 3.5) . ?x <q> ?z }`,
	}
	for _, text := range cases {
		q, err := ParseQuery(text)
		if err != nil {
			t.Errorf("%s: %v", text, err)
			continue
		}
		if len(q.Groups[0].Filters) == 0 {
			t.Errorf("%s: no filter parsed", text)
		}
	}
}

func TestParseOrderByMultipleKeys(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s ?p ?o } ORDER BY ?s DESC(?o) ASC(?p)`)
	want := []OrderKey{{Var: "s"}, {Var: "o", Desc: true}, {Var: "p"}}
	if !reflect.DeepEqual(q.OrderBy, want) {
		t.Fatalf("order = %+v", q.OrderBy)
	}
}

// A prefixed datatype on a literal must expand to the full-IRI surface
// form the store uses — otherwise the pattern silently matches nothing.
func TestParsePrefixedDatatypeExpansion(t *testing.T) {
	q := mustParse(t, `PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?x WHERE { ?x <age> "42"^^xsd:int }`)
	if got := q.Groups[0].Patterns[0][2]; got != `"42"^^<http://www.w3.org/2001/XMLSchema#int>` {
		t.Fatalf("prefixed datatype not expanded: %q", got)
	}
	if _, err := ParseQuery(`SELECT ?x WHERE { ?x <age> "42"^^xsd:int }`); err == nil ||
		!strings.Contains(err.Error(), `undefined prefix "xsd"`) {
		t.Fatalf("undefined datatype prefix: %v", err)
	}
	// Same expansion inside FILTER constants, where the typed constant
	// must stay numeric.
	b := bindingOf(map[string]string{"a": `"42"^^<http://www.w3.org/2001/XMLSchema#int>`})
	q = mustParse(t, `PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?x WHERE { ?x <age> ?a . FILTER(?a = "42"^^xsd:int) }`)
	if !Eval(q.Groups[0].Filters[0], b) {
		t.Fatal("prefixed typed constant did not match the stored term")
	}
}

func TestParseDuplicateOffsetRejected(t *testing.T) {
	for _, text := range []string{
		`SELECT * WHERE { ?s ?p ?o } OFFSET 3 OFFSET 5`,
		`SELECT * WHERE { ?s ?p ?o } OFFSET 0 OFFSET 5`,
	} {
		if _, err := ParseQuery(text); err == nil || !strings.Contains(err.Error(), "duplicate OFFSET") {
			t.Errorf("%q: err = %v", text, err)
		}
	}
}

func TestParseOffsetBeforeLimit(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s ?p ?o } OFFSET 5 LIMIT 2`)
	if q.Offset != 5 || !q.HasLimit || q.Limit != 2 {
		t.Fatalf("q = %+v", q)
	}
}

func TestParseLimitZeroMeansZeroRows(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s ?p ?o } LIMIT 0`)
	if !q.HasLimit || q.Limit != 0 {
		t.Fatalf("LIMIT 0 must parse as an explicit zero limit: %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"no-select":        `WHERE { ?s ?p ?o }`,
		"no-where":         `SELECT ?s ( ?s ?p ?o )`,
		"empty-bgp":        `SELECT * WHERE { }`,
		"undefined-prefix": `SELECT * WHERE { ex:a ?p ?o }`,
		"trailing-filter":  `SELECT * WHERE { ?s ?p ?o } FILTER(?s > 3)`,
		"bad-limit":        `SELECT * WHERE { ?s ?p ?o } LIMIT many`,
		"bad-offset":       `SELECT * WHERE { ?s ?p ?o } OFFSET x`,
		"dup-limit":        `SELECT * WHERE { ?s ?p ?o } LIMIT 1 LIMIT 2`,
		"no-projection":    `SELECT WHERE { ?s ?p ?o }`,
		"dangling-pattern": `SELECT * WHERE { ?s ?p }`,
		"empty-union-tail": `SELECT * WHERE { { ?s ?p ?o } UNION }`,
		"union-then-bgp":   `SELECT * WHERE { { ?s ?p ?o } UNION { ?s ?q ?o } ?s ?r ?o }`,
		"order-no-key":     `SELECT * WHERE { ?s ?p ?o } ORDER BY`,
		"filter-no-paren":  `SELECT * WHERE { ?s ?p ?o . FILTER ?s }`,
		"regex-no-pattern": `SELECT * WHERE { ?s ?p ?o . FILTER regex(?s) }`,
		"bad-regex":        `SELECT * WHERE { ?s ?p ?o . FILTER regex(?s, "[") }`,
		"bad-regex-flag":   `SELECT * WHERE { ?s ?p ?o . FILTER regex(?s, "a", "x") }`,
	}
	for name, text := range bad {
		if _, err := ParseQuery(text); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

// Every rejected construct must fail with its documented message (the
// docs/SPARQL.md table is the contract).
func TestRejectedConstructMessages(t *testing.T) {
	cases := map[string]string{
		`SELECT * WHERE { ?s ?p ?o MINUS { ?s <q> ?r } }`:                       "MINUS is not supported",
		`SELECT * WHERE { GRAPH <g> { ?s ?p ?o } }`:                             "GRAPH is not supported",
		`SELECT * WHERE { SERVICE <e> { ?s ?p ?o } }`:                           "SERVICE is not supported",
		`SELECT * WHERE { ?s <a>/<b> ?o }`:                                      "property paths are not supported",
		`SELECT * WHERE { ?s <a>|<b> ?o }`:                                      "property paths are not supported",
		`SELECT * WHERE { ?s ^<a> ?o }`:                                         "property paths are not supported",
		`SELECT * WHERE { { SELECT ?s WHERE { ?s ?p ?o } } }`:                   "subqueries are not supported",
		`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s HAVING(?n > 1)`: "HAVING is not supported",
		`CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }`:                             "only SELECT and ASK query forms are supported",
		`DESCRIBE <x>`:                                                              "only SELECT and ASK query forms are supported",
		`INSERT DATA { <s> <p> <o> }`:                                               "INSERT and DELETE are update operations; send them to the update endpoint",
		`DELETE WHERE { ?s <p> ?o }`:                                                "INSERT and DELETE are update operations; send them to the update endpoint",
		`SELECT * WHERE { ?s ?p ?o . FILTER(isBlank(?s)) }`:                         "FILTER function isblank is not supported",
		`SELECT * WHERE { ?s ?p ?o . FILTER EXISTS { ?s <q> ?r } }`:                 "FILTER needs a parenthesized expression",
		`SELECT * WHERE { ?s ?p ?o . { ?s <q> ?r } }`:                               "nested group patterns are not supported",
		`SELECT * WHERE { ?s ?p ?o UNION { ?s <q> ?r } }`:                           "UNION must combine braced groups",
		`SELECT * WHERE { ?s ?p ?o OPTIONAL { ?a <p> ?b OPTIONAL { ?b <q> ?c } } }`: "nested OPTIONAL is not supported",
		`SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s <q> ?r BIND(1 AS ?x) } }`:          "BIND inside OPTIONAL is not supported",
		`SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s <q> ?r VALUES ?x { 1 } } }`:        "VALUES inside OPTIONAL is not supported",
		`SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?s ?p ?o }`:                       "COUNT(DISTINCT *) is not supported",
		`SELECT (SUM(*) AS ?n) WHERE { ?s ?p ?o }`:                                  "only COUNT accepts *",
		`SELECT * WHERE { ?s ?p ?o } GROUP BY ?s`:                                   "SELECT * cannot be combined with GROUP BY",
		`SELECT ?p WHERE { ?s ?p ?o } GROUP BY ?s`:                                  "variable ?p must appear in GROUP BY or inside an aggregate",
		`SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`:                             "variable ?s must appear in GROUP BY or inside an aggregate",
		`SELECT (COUNT(*) AS ?s) WHERE { ?s ?p ?o }`:                                "AS ?s would rebind a WHERE-clause variable",
		`SELECT * WHERE { ?s <p> ?o . BIND(?o AS ?o) }`:                             "BIND target ?o is already bound in the group",
		`SELECT * WHERE { ?s ?p ?o } VALUES ?x { <a> }`:                             "VALUES must appear inside the WHERE clause",
		`SELECT * WHERE { ?s ?p ?o } ORDER BY ?s GROUP BY ?s`:                       "GROUP BY must appear before ORDER BY",
		`ASK { ?s ?p ?o } GROUP BY ?s`:                                              "GROUP BY is only valid in a SELECT query",
		`SELECT * WHERE { ?s <p> ?o . VALUES ?x { ?y } }`:                           "variables cannot appear in VALUES data",
		`SELECT * WHERE { VALUES (?x ?y) { (<a>) } ?x <p> ?y }`:                     "VALUES row has 1 terms, want 2",
	}
	for text, wantMsg := range cases {
		_, err := ParseQuery(text)
		if err == nil {
			t.Errorf("accepted %q", text)
			continue
		}
		if !strings.Contains(err.Error(), wantMsg) {
			t.Errorf("%q:\n  got  %v\n  want substring %q", text, err, wantMsg)
		}
	}
}

// Parse errors carry the 1-based line and column of the offending token.
func TestParseErrorPositions(t *testing.T) {
	_, err := ParseQuery("SELECT ?x WHERE {\n  ?x <p> ?y .\n  MINUS { ?x <q> ?z }\n}")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *ParseError", err)
	}
	if pe.Line != 3 || pe.Col != 3 || pe.Token != "MINUS" {
		t.Fatalf("position = line %d col %d token %q", pe.Line, pe.Col, pe.Token)
	}
	if !strings.Contains(pe.Error(), "line 3:3") {
		t.Fatalf("rendered error lacks position: %v", pe)
	}

	_, err = ParseQuery("SELECT ?x WHERE { ?x <p> ")
	if !errors.As(err, &pe) || pe.Token != "" {
		t.Fatalf("EOF error = %v", err)
	}
	if !strings.Contains(pe.Error(), "end of query") {
		t.Fatalf("EOF rendering: %v", pe)
	}
}

// ------------------------------------------------- SPARQL 1.1 expansion

func TestParseOptional(t *testing.T) {
	q := mustParse(t, `SELECT ?x ?n WHERE {
  ?x a <Person> .
  OPTIONAL { ?x <name> ?n . FILTER(?n != "x") }
  OPTIONAL { ?x <age> ?a }
}`)
	g := q.Groups[0]
	if len(g.Patterns) != 1 || len(g.Optionals) != 2 {
		t.Fatalf("group = %+v", g)
	}
	if len(g.Optionals[0].Patterns) != 1 || len(g.Optionals[0].Filters) != 1 {
		t.Fatalf("optional 0 = %+v", g.Optionals[0])
	}
	if g.Optionals[1].Patterns[0] != [3]string{"?x", "<age>", "?a"} {
		t.Fatalf("optional 1 = %+v", g.Optionals[1])
	}
}

func TestParseOptionalInUnionBranch(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE {
  { ?x <p> ?y OPTIONAL { ?y <q> ?z } }
  UNION { ?x <r> ?y }
}`)
	if len(q.Groups) != 2 || len(q.Groups[0].Optionals) != 1 {
		t.Fatalf("groups = %+v", q.Groups)
	}
}

func TestParseBind(t *testing.T) {
	q := mustParse(t, `SELECT ?x ?y WHERE { ?x <p> ?o . BIND(?o AS ?y) . BIND(42 AS ?mean) }`)
	g := q.Groups[0]
	if len(g.Binds) != 2 || g.Binds[0].Var != "y" || g.Binds[1].Var != "mean" {
		t.Fatalf("binds = %+v", g.Binds)
	}
	if g.Binds[0].Expr.String() != "?o" {
		t.Fatalf("bind expr = %s", g.Binds[0].Expr)
	}
	// A BIND-only group is a valid unit-solution group.
	q = mustParse(t, `SELECT ?y WHERE { BIND(1 AS ?y) }`)
	if len(q.Groups[0].Binds) != 1 || len(q.Groups[0].Patterns) != 0 {
		t.Fatalf("bind-only group = %+v", q.Groups[0])
	}
}

func TestParseValuesForms(t *testing.T) {
	q := mustParse(t, `PREFIX ex: <http://e/>
SELECT * WHERE { ?x <p> ?y . VALUES ?x { ex:a <b> "lit" 42 } }`)
	v := q.Groups[0].Values[0]
	if len(v.Vars) != 1 || v.Vars[0] != "x" || len(v.Rows) != 4 {
		t.Fatalf("values = %+v", v)
	}
	want := []string{"<http://e/a>", "<b>", `"lit"`, `"42"`}
	for i, w := range want {
		if v.Rows[i][0] != w {
			t.Errorf("row %d = %q, want %q", i, v.Rows[i][0], w)
		}
	}

	q = mustParse(t, `SELECT * WHERE { ?x <p> ?y VALUES (?x ?y) { (<a> <b>) (UNDEF <c>) } }`)
	v = q.Groups[0].Values[0]
	if len(v.Vars) != 2 || len(v.Rows) != 2 {
		t.Fatalf("values = %+v", v)
	}
	if v.Rows[1][0] != "" || v.Rows[1][1] != "<c>" {
		t.Fatalf("UNDEF row = %+v", v.Rows[1])
	}

	// VALUES-only group: the data block is the whole pattern.
	q = mustParse(t, `SELECT ?x WHERE { VALUES ?x { <a> <b> } }`)
	if len(q.Groups[0].Values) != 1 || len(q.Groups[0].Patterns) != 0 {
		t.Fatalf("values-only group = %+v", q.Groups[0])
	}
}

func TestParsePredicateObjectLists(t *testing.T) {
	q := mustParse(t, `PREFIX ex: <http://e/>
SELECT * WHERE { ex:s ex:p ex:a , ex:b ; ex:q ex:c ; a ex:T . ?x ex:r ?y }`)
	want := [][3]string{
		{"<http://e/s>", "<http://e/p>", "<http://e/a>"},
		{"<http://e/s>", "<http://e/p>", "<http://e/b>"},
		{"<http://e/s>", "<http://e/q>", "<http://e/c>"},
		{"<http://e/s>", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>", "<http://e/T>"},
		{"?x", "<http://e/r>", "?y"},
	}
	if !reflect.DeepEqual(q.Groups[0].Patterns, want) {
		t.Fatalf("patterns = %v", q.Groups[0].Patterns)
	}
	// Trailing ';' before '.' or '}' is legal, as in SPARQL.
	q = mustParse(t, `SELECT * WHERE { <s> <p> <a> ; . <s2> <q> <b> ; }`)
	if len(q.Groups[0].Patterns) != 2 {
		t.Fatalf("trailing-semicolon patterns = %v", q.Groups[0].Patterns)
	}
}

func TestParseAggregates(t *testing.T) {
	q := mustParse(t, `SELECT ?d (COUNT(*) AS ?n) (SUM(?a) AS ?sum) (COUNT(DISTINCT ?x) AS ?dx)
WHERE { ?x <in> ?d ; <age> ?a } GROUP BY ?d`)
	if !reflect.DeepEqual(q.Vars, []string{"d", "n", "sum", "dx"}) {
		t.Fatalf("vars = %v", q.Vars)
	}
	if !reflect.DeepEqual(q.GroupBy, []string{"d"}) {
		t.Fatalf("group by = %v", q.GroupBy)
	}
	if !q.HasAggregates() {
		t.Fatal("HasAggregates = false")
	}
	items := q.Items
	if items[0].Agg != nil || items[1].Agg == nil || items[2].Agg == nil || items[3].Agg == nil {
		t.Fatalf("items = %+v", items)
	}
	if !items[1].Agg.Star || items[1].Agg.Func != AggCount {
		t.Fatalf("COUNT(*) = %+v", items[1].Agg)
	}
	if items[2].Agg.Func != AggSum || items[2].Agg.Var != "a" {
		t.Fatalf("SUM = %+v", items[2].Agg)
	}
	if !items[3].Agg.Distinct || items[3].Agg.Var != "x" {
		t.Fatalf("COUNT DISTINCT = %+v", items[3].Agg)
	}
	// Aggregates without GROUP BY: one implicit group.
	q = mustParse(t, `SELECT (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) WHERE { ?x <age> ?a }`)
	if len(q.GroupBy) != 0 || !q.HasAggregates() {
		t.Fatalf("implicit group query = %+v", q)
	}
}

func TestParseNumberTerm(t *testing.T) {
	for _, tok := range []string{"42", "3.5", "-7", "1e3", "2.5E-2"} {
		q := mustParse(t, `SELECT ?x WHERE { ?x <age> `+tok+` }`)
		if got := q.Groups[0].Patterns[0][2]; got != `"`+tok+`"` {
			t.Errorf("bare number %s = %q", tok, got)
		}
	}
	// Predicate position stays an error.
	if _, err := ParseQuery(`SELECT ?x WHERE { ?x 42 ?o }`); err == nil ||
		!strings.Contains(err.Error(), "cannot parse term") {
		t.Fatalf("numeric predicate: %v", err)
	}
	// Only the documented numeric shapes: everything ParseFloat would
	// additionally swallow must stay a deterministic parse error, not a
	// silently-unmatchable literal.
	for _, tok := range []string{"NaN", "Inf", "Infinity", "0x1p2", "1_000", "e3", "-", "1e", "1e+", "1e999"} {
		if _, err := ParseQuery(`SELECT ?x WHERE { ?x <age> ` + tok + ` }`); err == nil {
			t.Errorf("accepted non-numeric bare term %q", tok)
		}
	}
	// Same strictness for FILTER constants.
	if _, err := ParseQuery(`SELECT ?x WHERE { ?x <age> ?a . FILTER(?a = NaN) }`); err == nil ||
		!strings.Contains(err.Error(), "cannot parse FILTER operand") {
		t.Fatalf("NaN FILTER constant: %v", err)
	}
}

// BIND may not target a variable the group binds anywhere — patterns,
// OPTIONAL blocks, or VALUES — else the query would silently join
// instead of erroring like the pattern-variable case does.
func TestParseBindValuesCollisionRejected(t *testing.T) {
	_, err := ParseQuery(`SELECT * WHERE { ?s <p> ?o . VALUES ?x { <a> } BIND(<b> AS ?x) }`)
	if err == nil || !strings.Contains(err.Error(), "BIND target ?x is already bound in the group") {
		t.Fatalf("err = %v", err)
	}
}

func TestAggStateSemantics(t *testing.T) {
	obs := func(a *Aggregate, terms ...string) (string, bool) {
		st := NewAggState(a)
		for _, term := range terms {
			st.Observe(term, term != "")
		}
		return st.Result()
	}
	intLit := func(n string) string { return `"` + n + `"^^<http://www.w3.org/2001/XMLSchema#integer>` }

	if got, ok := obs(&Aggregate{Func: AggCount, Star: true}, "", "", ""); !ok || got != intLit("3") {
		t.Errorf("COUNT(*) = %q %t", got, ok)
	}
	if got, ok := obs(&Aggregate{Func: AggCount, Var: "v"}, `"a"`, "", `"a"`); !ok || got != intLit("2") {
		t.Errorf("COUNT(?v) skips unbound: %q %t", got, ok)
	}
	if got, ok := obs(&Aggregate{Func: AggCount, Var: "v", Distinct: true}, `"a"`, `"b"`, `"a"`); !ok || got != intLit("2") {
		t.Errorf("COUNT(DISTINCT ?v) = %q %t", got, ok)
	}
	if got, ok := obs(&Aggregate{Func: AggSum, Var: "v"}, `"2"`, `"40"^^<http://www.w3.org/2001/XMLSchema#int>`); !ok || got != intLit("42") {
		t.Errorf("SUM = %q %t", got, ok)
	}
	if _, ok := obs(&Aggregate{Func: AggSum, Var: "v"}, `"2"`, `"x"`); ok {
		t.Error("SUM over a non-numeric value must be unbound")
	}
	if got, ok := obs(&Aggregate{Func: AggSum, Var: "v"}); !ok || got != intLit("0") {
		t.Errorf("SUM over nothing = %q %t, want 0", got, ok)
	}
	if got, ok := obs(&Aggregate{Func: AggAvg, Var: "v"}, `"2"`, `"3"`); !ok || got != `"2.5"^^<http://www.w3.org/2001/XMLSchema#double>` {
		t.Errorf("AVG = %q %t", got, ok)
	}
	if got, ok := obs(&Aggregate{Func: AggMin, Var: "v"}, `"10"`, `"2"`); !ok || got != `"2"` {
		t.Errorf("MIN numeric = %q %t", got, ok)
	}
	if got, ok := obs(&Aggregate{Func: AggMax, Var: "v"}, `"10"`, `"2"`); !ok || got != `"10"` {
		t.Errorf("MAX numeric = %q %t", got, ok)
	}
	if _, ok := obs(&Aggregate{Func: AggMin, Var: "v"}); ok {
		t.Error("MIN over nothing must be unbound")
	}
}

func TestEvalTerm(t *testing.T) {
	b := bindingOf(map[string]string{
		"iri": "<http://e/a>",
		"n":   `"41"^^<http://www.w3.org/2001/XMLSchema#int>`,
	})
	bindOf := func(text string) Expr {
		t.Helper()
		q, err := ParseQuery(`SELECT * WHERE { ?s ?p ?o . BIND(` + text + ` AS ?out) }`)
		if err != nil {
			t.Fatalf("BIND(%s): %v", text, err)
		}
		return q.Groups[0].Binds[0].Expr
	}
	cases := []struct {
		expr string
		want string
	}{
		{`?iri`, "<http://e/a>"},
		{`?n`, `"41"^^<http://www.w3.org/2001/XMLSchema#int>`},
		{`42`, `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{`"hello"`, `"hello"`},
		{`?n > 40`, `"true"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
		{`bound(?missing)`, `"false"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
	}
	for _, c := range cases {
		got, ok := EvalTerm(bindOf(c.expr), b)
		if !ok || got != c.want {
			t.Errorf("EvalTerm(%s) = %q %t, want %q", c.expr, got, ok, c.want)
		}
	}
	if _, ok := EvalTerm(bindOf(`?missing`), b); ok {
		t.Error("EvalTerm of an unbound variable must report !ok")
	}
}

func TestTokenizerLiteralEdgeCases(t *testing.T) {
	toks := tokenize(`"a \" quote" "x"@en "5"^^<http://t> .`)
	want := []string{`"a \" quote"`, `"x"@en`, `"5"^^<http://t>`, "."}
	got := make([]string, len(toks))
	for i, tk := range toks {
		got[i] = tk.text
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("toks = %q", got)
	}
}

func TestTokenizerOperators(t *testing.T) {
	toks := tokenize(`FILTER(?x<=3 && ?y != "a||b" || !bound(?z))`)
	want := []string{"FILTER", "(", "?x", "<=", "3", "&&", "?y", "!=", `"a||b"`, "||", "!", "bound", "(", "?z", ")", ")"}
	got := make([]string, len(toks))
	for i, tk := range toks {
		got[i] = tk.text
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("toks = %q", got)
	}
}

// '<' opens an IRI only when '>' closes it before whitespace; otherwise
// it is the comparison operator.
func TestTokenizerIRIVersusLessThan(t *testing.T) {
	toks := tokenize(`?x < 3 . ?y <http://e/a> ?z`)
	want := []string{"?x", "<", "3", ".", "?y", "<http://e/a>", "?z"}
	got := make([]string, len(toks))
	for i, tk := range toks {
		got[i] = tk.text
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("toks = %q", got)
	}
}

func TestDotVersusDecimalInLocalNames(t *testing.T) {
	q := mustParse(t, `PREFIX ex: <http://e/>
SELECT * WHERE { ex:a.b ex:p ?o }`)
	if q.Groups[0].Patterns[0][0] != "<http://e/a.b>" {
		t.Fatalf("dotted local name: %q", q.Groups[0].Patterns[0][0])
	}
}

func TestKeywordAOnlyInPredicatePosition(t *testing.T) {
	_, err := ParseQuery(`SELECT * WHERE { a ?p ?o }`)
	if err == nil || !strings.Contains(err.Error(), "cannot parse term") {
		t.Fatalf("'a' in subject position must fail, got %v", err)
	}
}

// ------------------------------------------------------ filter evaluation

// bindingOf builds a lookup over a literal map.
func bindingOf(m map[string]string) func(string) (string, bool) {
	return func(name string) (string, bool) {
		v, ok := m[name]
		return v, ok
	}
}

func filterOf(t *testing.T, text string) Expr {
	t.Helper()
	q, err := ParseQuery("SELECT * WHERE { ?s ?p ?o . FILTER" + text + " }")
	if err != nil {
		t.Fatalf("FILTER%s: %v", text, err)
	}
	return q.Groups[0].Filters[0]
}

func TestFilterEval(t *testing.T) {
	b := bindingOf(map[string]string{
		"n":    `"42"^^<http://www.w3.org/2001/XMLSchema#int>`,
		"m":    `"7"`,
		"name": `"Alice"`,
		"iri":  `<http://e/alice>`,
		"lang": `"chat"@fr`,
	})
	cases := []struct {
		filter string
		want   bool
	}{
		{`(?n > 10)`, true},
		{`(?n < 10)`, false},
		{`(?n >= 42)`, true},
		{`(?n = 42)`, true},
		{`(?n != 42)`, false},
		{`(?m < ?n)`, true}, // 7 < 42 numerically, not lexically
		{`(?name = "Alice")`, true},
		{`(?name != "Bob")`, true},
		{`(?name < "Bob")`, true},
		{`(?iri = <http://e/alice>)`, true},
		{`(?iri != <http://e/bob>)`, true},
		{`(?n > 10 && ?name = "Alice")`, true},
		{`(?n < 10 || ?name = "Alice")`, true},
		{`(!(?n < 10))`, true},
		{`(bound(?name))`, true},
		{`(bound(?missing))`, false},
		{`(!bound(?missing))`, true},
		{` regex(?name, "^Ali")`, true},
		{` regex(?name, "^ali")`, false},
		{` regex(?name, "^ali", "i")`, true},
		{` regex(?iri, "alice$")`, true},
		{` regex(?lang, "^ch")`, true},
		// Unbound variables outside bound() fail the constraint.
		{`(?missing > 3)`, false},
		// true || error is true; error && anything is false at the top.
		{`(?name = "Alice" || ?missing > 3)`, true},
		{`(?missing > 3 && ?name = "Alice")`, false},
		// Cross-kind ordering is an evaluation error, not a panic.
		{`(?iri < ?n)`, false},
		// IRI vs literal equality: distinct terms.
		{`(?iri = "Alice")`, false},
		{`(?iri != "Alice")`, true},
	}
	for _, c := range cases {
		e := filterOf(t, c.filter)
		if got := Eval(e, b); got != c.want {
			t.Errorf("FILTER%s = %t, want %t", c.filter, got, c.want)
		}
	}
}

func TestFilterLangAndTypedLiteralEquality(t *testing.T) {
	b := bindingOf(map[string]string{
		"lang":  `"chat"@fr`,
		"plain": `"chat"`,
	})
	// A language-tagged literal is a different term from the plain one.
	if Eval(filterOf(t, `(?lang = "chat")`), b) {
		t.Error(`"chat"@fr = "chat" must be false`)
	}
	if !Eval(filterOf(t, `(?plain = "chat")`), b) {
		t.Error(`"chat" = "chat" must be true`)
	}
}

func TestCompareTerms(t *testing.T) {
	ordered := []string{
		"",                             // unbound first
		"_:b0",                         // blanks
		"<http://e/a>", "<http://e/b>", // IRIs
		`"2"`, `"10"`, // numeric literals by value
		`"alpha"`, `"beta"`, // strings lexically
	}
	for i := range ordered {
		for j := range ordered {
			got := CompareTerms(ordered[i], ordered[j])
			want := cmpInt(i, j)
			if (got < 0) != (want < 0) || (got > 0) != (want > 0) {
				t.Errorf("CompareTerms(%q, %q) = %d, want sign of %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestNumericTerm(t *testing.T) {
	if v, ok := NumericTerm(`"3.5"`); !ok || v != 3.5 {
		t.Fatalf("plain numeric literal: %v %t", v, ok)
	}
	if v, ok := NumericTerm(`"41"^^<http://www.w3.org/2001/XMLSchema#integer>`); !ok || v != 41 {
		t.Fatalf("typed numeric literal: %v %t", v, ok)
	}
	if _, ok := NumericTerm(`"abc"`); ok {
		t.Fatal("non-numeric literal classified numeric")
	}
	if _, ok := NumericTerm(`<http://e/1>`); ok {
		t.Fatal("IRI classified numeric")
	}
}

package inferray_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"inferray"
)

func universityFixture(t *testing.T) *inferray.Reasoner {
	t.Helper()
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	add := func(s, p, o string) {
		if err := r.Add(s, p, o); err != nil {
			t.Fatal(err)
		}
	}
	add("<subOrgOf>", inferray.Type, inferray.TransitiveProperty)
	add("<worksFor>", inferray.SubPropertyOf, "<memberOf>")
	add("<GroupA>", "<subOrgOf>", "<DeptCS>")
	add("<DeptCS>", "<subOrgOf>", "<Univ0>")
	add("<alice>", "<worksFor>", "<DeptCS>")
	add("<bob>", "<worksFor>", "<GroupA>")
	add("<alice>", inferray.Type, "<Professor>")
	add("<Professor>", inferray.SubClassOf, "<Person>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestQuerySinglePattern(t *testing.T) {
	r := universityFixture(t)
	rows, err := r.Query([3]string{"?x", inferray.Type, "<Person>"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["x"] != "<alice>" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestQueryJoin(t *testing.T) {
	r := universityFixture(t)
	// Who is a member of something that is (transitively) part of Univ0?
	rows, err := r.Query(
		[3]string{"?who", "<memberOf>", "?org"},
		[3]string{"?org", "<subOrgOf>", "<Univ0>"},
	)
	if err != nil {
		t.Fatal(err)
	}
	var who []string
	for _, row := range rows {
		who = append(who, row["who"])
	}
	sort.Strings(who)
	want := []string{"<alice>", "<bob>"}
	if len(who) != 2 || who[0] != want[0] || who[1] != want[1] {
		t.Fatalf("who = %v, want %v", who, want)
	}
}

func TestQueryVariablePredicate(t *testing.T) {
	r := universityFixture(t)
	n, err := r.QueryCount([3]string{"<alice>", "?p", "?o"})
	if err != nil {
		t.Fatal(err)
	}
	// alice: worksFor DeptCS, memberOf DeptCS, type Professor, type Person.
	if n != 4 {
		t.Fatalf("alice has %d facts, want 4", n)
	}
}

func TestQueryUnknownConstant(t *testing.T) {
	r := universityFixture(t)
	rows, err := r.Query([3]string{"?x", inferray.Type, "<NeverSeen>"})
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}

func TestQueryEmptyPatternsRejected(t *testing.T) {
	r := universityFixture(t)
	if _, err := r.Query(); err == nil {
		t.Fatal("empty pattern list accepted")
	}
}

func TestQueryFuncEarlyStop(t *testing.T) {
	r := universityFixture(t)
	n := 0
	err := r.QueryFunc(func(map[string]string) bool {
		n++
		return false
	}, [3]string{"?s", "?p", "?o"})
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestSnapshotRoundTripThroughFacade(t *testing.T) {
	r := universityFixture(t)
	var buf bytes.Buffer
	if err := r.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := inferray.LoadSnapshot(bytes.NewReader(buf.Bytes()),
		inferray.WithFragment(inferray.RDFSPlus))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Size() != r.Size() {
		t.Fatalf("restored size %d, want %d", r2.Size(), r.Size())
	}
	// Queries work immediately on the restored store.
	if !r2.Holds("<alice>", inferray.Type, "<Person>") {
		t.Fatal("restored store lost an inferred triple")
	}
	n, err := r2.QueryCount([3]string{"?s", "?p", "?o"})
	if err != nil || n != r.Size() {
		t.Fatalf("restored query count %d (err %v), want %d", n, err, r.Size())
	}
	// The restored reasoner remains usable: add + re-materialize.
	if err := r2.Add("<GroupA>", "<subOrgOf>", "<Campus>"); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Materialize(); err != nil {
		t.Fatal(err)
	}
	if !r2.Holds("<GroupA>", "<subOrgOf>", "<Campus>") {
		t.Fatal("restored reasoner cannot extend")
	}
}

func TestSnapshotIsFixpoint(t *testing.T) {
	r := universityFixture(t)
	var buf bytes.Buffer
	if err := r.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := inferray.LoadSnapshot(bytes.NewReader(buf.Bytes()),
		inferray.WithFragment(inferray.RDFSPlus))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := r2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if stats.InferredTriples != 0 {
		t.Fatalf("restored closure re-derived %d triples", stats.InferredTriples)
	}
}

func TestSelectSPARQL(t *testing.T) {
	r := universityFixture(t)
	rows, err := r.Select(`
SELECT ?who ?org WHERE {
  ?who <memberOf> ?org .
  ?org <subOrgOf> <Univ0>
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, row := range rows {
		if len(row) != 2 || row["who"] == "" || row["org"] == "" {
			t.Fatalf("projection wrong: %v", row)
		}
	}
}

func TestSelectStarAndLimit(t *testing.T) {
	r := universityFixture(t)
	rows, err := r.Select(`SELECT * WHERE { ?s ?p ?o } LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("limit ignored: %d rows", len(rows))
	}
}

func TestSelectSyntaxError(t *testing.T) {
	r := universityFixture(t)
	if _, err := r.Select(`SELECT WHERE`); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestSelectWithPrefixAndA(t *testing.T) {
	r := universityFixture(t)
	rows, err := r.Select(`
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?x WHERE { ?x a <Person> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["x"] != "<alice>" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestQueryAnonymousVariables(t *testing.T) {
	r := universityFixture(t)
	// Two bare '?' slots: each matches independently (they are distinct
	// variables, not a shared one) and neither leaks into the rows.
	rows, err := r.Query([3]string{"?who", "<memberOf>", "?"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		if len(row) != 1 {
			t.Fatalf("anonymous slot leaked into row: %v", row)
		}
		if _, ok := row["who"]; !ok {
			t.Fatalf("named variable missing: %v", row)
		}
	}
}

func TestQueryAnonymousNoCollision(t *testing.T) {
	r := universityFixture(t)
	// A user variable literally named "_anon0" (the old synthesized
	// name) must stay independent of a bare '?' in the same pattern
	// list and survive into the rows.
	rows, err := r.Query(
		[3]string{"?_anon0", "<memberOf>", "?"},
		[3]string{"?_anon0", inferray.Type, "<Professor>"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["_anon0"] != "<alice>" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSelectFilterComparison(t *testing.T) {
	r := universityFixture(t)
	if err := r.Add("<alice>", "<age>", `"42"^^<http://www.w3.org/2001/XMLSchema#int>`); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("<bob>", "<age>", `"7"`); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	rows, err := r.Select(`SELECT ?x WHERE { ?x <age> ?a . FILTER(?a > 10) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["x"] != "<alice>" {
		t.Fatalf("rows = %v", rows)
	}
	// Numeric comparison, not lexical: "7" < "42" numerically.
	rows, err = r.Select(`SELECT ?x WHERE { ?x <age> ?a . FILTER(?a < 10) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["x"] != "<bob>" {
		t.Fatalf("rows = %v", rows)
	}
}

// A typed literal written with a prefixed datatype must match the
// stored full-IRI form end-to-end.
func TestSelectPrefixedDatatypeLiteral(t *testing.T) {
	r := universityFixture(t)
	if err := r.Add("<alice>", "<age>", `"42"^^<http://www.w3.org/2001/XMLSchema#int>`); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	rows, err := r.Select(`PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?x WHERE { ?x <age> "42"^^xsd:int }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["x"] != "<alice>" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSelectFilterRegexAndBound(t *testing.T) {
	r := universityFixture(t)
	rows, err := r.Select(`SELECT ?who WHERE { ?who <memberOf> ?org . FILTER regex(?who, "^ali", "i") }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["who"] != "<alice>" {
		t.Fatalf("regex rows = %v", rows)
	}
	rows, err = r.Select(`SELECT ?who WHERE { ?who <memberOf> ?org . FILTER(bound(?org) && ?who != <bob>) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["who"] != "<alice>" {
		t.Fatalf("bound rows = %v", rows)
	}
}

func TestSelectDistinct(t *testing.T) {
	r := universityFixture(t)
	// Projecting only ?org over subOrgOf repeats Univ0 (both GroupA and
	// DeptCS are transitively under it).
	plain, err := r.Select(`SELECT ?org WHERE { ?x <subOrgOf> ?org }`)
	if err != nil {
		t.Fatal(err)
	}
	distinct, err := r.Select(`SELECT DISTINCT ?org WHERE { ?x <subOrgOf> ?org }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 3 {
		t.Fatalf("plain rows = %v", plain)
	}
	if len(distinct) != 2 { // DeptCS, Univ0
		t.Fatalf("distinct rows = %v", distinct)
	}
}

func TestSelectOrderByAndOffset(t *testing.T) {
	r := universityFixture(t)
	rows, err := r.Select(`SELECT DISTINCT ?who WHERE { ?who <memberOf> ?org } ORDER BY ?who`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0]["who"] != "<alice>" || rows[1]["who"] != "<bob>" {
		t.Fatalf("ascending rows = %v", rows)
	}
	rows, err = r.Select(`SELECT DISTINCT ?who WHERE { ?who <memberOf> ?org } ORDER BY DESC(?who)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0]["who"] != "<bob>" {
		t.Fatalf("descending rows = %v", rows)
	}
	rows, err = r.Select(`SELECT DISTINCT ?who WHERE { ?who <memberOf> ?org } ORDER BY ?who OFFSET 1 LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["who"] != "<bob>" {
		t.Fatalf("offset rows = %v", rows)
	}
}

func TestSelectOrderByNumeric(t *testing.T) {
	r := universityFixture(t)
	for _, e := range [][2]string{{"<bob>", `"7"`}, {"<alice>", `"42"`}, {"<carol>", `"100"`}} {
		if err := r.Add(e[0], "<age>", e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	rows, err := r.Select(`SELECT ?x ?a WHERE { ?x <age> ?a } ORDER BY ?a`)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{rows[0]["x"], rows[1]["x"], rows[2]["x"]}
	want := []string{"<bob>", "<alice>", "<carol>"} // 7 < 42 < 100 numerically
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("numeric order = %v, want %v", got, want)
		}
	}
}

func TestSelectUnion(t *testing.T) {
	r := universityFixture(t)
	rows, err := r.Select(`SELECT ?x WHERE {
  { ?x <worksFor> <DeptCS> } UNION { ?x <worksFor> <GroupA> }
}`)
	if err != nil {
		t.Fatal(err)
	}
	var who []string
	for _, row := range rows {
		who = append(who, row["x"])
	}
	sort.Strings(who)
	if len(who) != 2 || who[0] != "<alice>" || who[1] != "<bob>" {
		t.Fatalf("union rows = %v", who)
	}
}

func TestSelectUnionDisjointVars(t *testing.T) {
	r := universityFixture(t)
	// ?org is bound only by the first branch: second-branch rows must
	// simply lack the key (SPARQL's unbound), not carry garbage.
	vars, rows, err := r.SelectWithVars(`SELECT * WHERE {
  { ?who <memberOf> ?org } UNION { ?who a <Professor> }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 2 || vars[0] != "who" || vars[1] != "org" {
		t.Fatalf("vars = %v", vars)
	}
	sawUnbound := false
	for _, row := range rows {
		if _, ok := row["who"]; !ok {
			t.Fatalf("row lacks ?who: %v", row)
		}
		if _, ok := row["org"]; !ok {
			sawUnbound = true
		}
	}
	if !sawUnbound {
		t.Fatal("no row from the ?org-free branch")
	}
}

func TestAsk(t *testing.T) {
	r := universityFixture(t)
	cases := []struct {
		query string
		want  bool
	}{
		{`ASK { <alice> a <Person> }`, true},
		{`ASK WHERE { <bob> a <Person> }`, false},
		{`ASK { ?x <memberOf> <GroupA> . FILTER(?x != <alice>) }`, true},
		{`ASK { ?x <memberOf> <GroupA> . FILTER(?x = <alice>) }`, false},
		{`ASK { { <nobody> ?p ?o } UNION { <alice> a <Professor> } }`, true},
	}
	for _, c := range cases {
		got, err := r.Ask(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got != c.want {
			t.Errorf("%s = %t, want %t", c.query, got, c.want)
		}
	}
	if _, err := r.Ask(`SELECT * WHERE { ?s ?p ?o }`); err == nil {
		t.Fatal("Ask accepted a SELECT query")
	}
	if _, err := r.Select(`ASK { ?s ?p ?o }`); err == nil {
		t.Fatal("Select accepted an ASK query")
	}
}

func TestSelectLimitZero(t *testing.T) {
	r := universityFixture(t)
	rows, err := r.Select(`SELECT * WHERE { ?s ?p ?o } LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(rows))
	}
}

func TestExecFuncStreamingAndCap(t *testing.T) {
	r := universityFixture(t)
	var headVars []string
	var rows []map[string]string
	res, err := r.ExecFunc(`SELECT ?s WHERE { ?s ?p ?o }`, 3, func(vars []string) {
		if rows != nil {
			t.Fatal("head delivered after rows")
		}
		headVars = vars
	}, func(row map[string]string) bool {
		rows = append(rows, row)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ask || len(res.Vars) != 1 || res.Vars[0] != "s" {
		t.Fatalf("result head = %+v", res)
	}
	if len(headVars) != 1 || headVars[0] != "s" {
		t.Fatalf("onHead vars = %v", headVars)
	}
	if len(rows) != 3 {
		t.Fatalf("maxRows cap delivered %d rows, want 3", len(rows))
	}
}

func TestSelectOrderByUnknownVarRejected(t *testing.T) {
	r := universityFixture(t)
	_, err := r.Select(`SELECT ?who WHERE { ?who <memberOf> ?org } ORDER BY ?nope`)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v", err)
	}
}

func TestSelectUnknownProjectionRejected(t *testing.T) {
	r := universityFixture(t)
	// ?orgg is a typo for ?org: it must be an error, not rows silently
	// missing the key.
	_, err := r.Select(`SELECT ?who ?orgg WHERE { ?who <memberOf> ?org }`)
	if err == nil {
		t.Fatal("projection of unused variable accepted")
	}
	if !strings.Contains(err.Error(), "orgg") {
		t.Fatalf("error does not name the variable: %v", err)
	}
}

// ------------------------------------------------- SPARQL 1.1 expansion

func TestSelectOptional(t *testing.T) {
	r := universityFixture(t)
	if err := r.Add("<alice>", "<age>", `"42"`); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	rows, err := r.Select(`SELECT ?who ?a WHERE {
  ?who <worksFor> ?org .
  OPTIONAL { ?who <age> ?a }
} ORDER BY ?who`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0]["who"] != "<alice>" || rows[0]["a"] != `"42"` {
		t.Fatalf("matched optional row = %v", rows[0])
	}
	if rows[1]["who"] != "<bob>" {
		t.Fatalf("rows = %v", rows)
	}
	if _, ok := rows[1]["a"]; ok {
		t.Fatalf("unmatched optional must leave ?a unbound: %v", rows[1])
	}
}

// A FILTER inside OPTIONAL is part of the join condition: an extension
// it rejects degrades to the null row instead of dropping the solution.
func TestSelectOptionalScopedFilter(t *testing.T) {
	r := universityFixture(t)
	for _, e := range [][2]string{{"<alice>", `"42"`}, {"<bob>", `"7"`}} {
		if err := r.Add(e[0], "<age>", e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	rows, err := r.Select(`SELECT ?who ?a WHERE {
  ?who <worksFor> ?org .
  OPTIONAL { ?who <age> ?a . FILTER(?a > 10) }
} ORDER BY ?who`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0]["a"] != `"42"` {
		t.Fatalf("alice = %v", rows[0])
	}
	if _, ok := rows[1]["a"]; ok {
		t.Fatalf("bob's age 7 fails the scoped filter, ?a must be unbound: %v", rows[1])
	}
	// The outer filter then sees the unbound cell three-valued.
	rows, err = r.Select(`SELECT ?who WHERE {
  ?who <worksFor> ?org .
  OPTIONAL { ?who <age> ?a . FILTER(?a > 10) }
  FILTER(!bound(?a))
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["who"] != "<bob>" {
		t.Fatalf("!bound rows = %v", rows)
	}
}

func TestSelectBind(t *testing.T) {
	r := universityFixture(t)
	rows, err := r.Select(`SELECT ?who ?where ?tag WHERE {
  ?who <worksFor> ?org .
  BIND(?org AS ?where)
  BIND(42 AS ?tag)
} ORDER BY ?who`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0]["where"] != "<DeptCS>" ||
		rows[0]["tag"] != `"42"^^<http://www.w3.org/2001/XMLSchema#integer>` {
		t.Fatalf("rows = %v", rows)
	}
	// An erroring expression leaves the target unbound, not an error.
	rows, err = r.Select(`SELECT ?who ?bad WHERE { ?who <worksFor> ?org . BIND(?nope > 3 AS ?bad) }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if _, ok := row["bad"]; ok {
			t.Fatalf("erroring BIND must stay unbound: %v", row)
		}
	}
}

func TestSelectValues(t *testing.T) {
	r := universityFixture(t)
	// VALUES constrains a pattern variable.
	rows, err := r.Select(`SELECT ?who WHERE {
  VALUES ?who { <alice> <carol> }
  ?who <worksFor> ?org
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["who"] != "<alice>" {
		t.Fatalf("rows = %v", rows)
	}
	// Multi-variable VALUES with UNDEF: the undef cell joins anything.
	rows, err = r.Select(`SELECT ?who ?note WHERE {
  ?who <worksFor> ?org .
  VALUES (?who ?note) { (<alice> "pi") (UNDEF "anyone") }
} ORDER BY ?who ?note`)
	if err != nil {
		t.Fatal(err)
	}
	want := []map[string]string{
		{"who": "<alice>", "note": `"anyone"`},
		{"who": "<alice>", "note": `"pi"`},
		{"who": "<bob>", "note": `"anyone"`},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i := range want {
		if rows[i]["who"] != want[i]["who"] || rows[i]["note"] != want[i]["note"] {
			t.Fatalf("row %d = %v, want %v", i, rows[i], want[i])
		}
	}
	// VALUES-only group enumerates its data.
	rows, err = r.Select(`SELECT ?x WHERE { VALUES ?x { <a> <b> <c> } } ORDER BY ?x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0]["x"] != "<a>" || rows[2]["x"] != "<c>" {
		t.Fatalf("values-only rows = %v", rows)
	}
}

func TestSelectPredicateObjectListSugar(t *testing.T) {
	r := universityFixture(t)
	// `;` and `,` expand to plain triple patterns over the same data.
	rows, err := r.Select(`SELECT ?who WHERE { ?who <worksFor> <DeptCS> ; a <Professor> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["who"] != "<alice>" {
		t.Fatalf("';' rows = %v", rows)
	}
	n, err := r.Ask(`ASK { <GroupA> <subOrgOf> <DeptCS> , <Univ0> }`)
	if err != nil || !n {
		t.Fatalf("',' ask = %t err=%v", n, err)
	}
}

func TestSelectAggregates(t *testing.T) {
	r := universityFixture(t)
	for _, e := range [][3]string{
		{"<alice>", "<age>", `"42"`},
		{"<bob>", "<age>", `"7"`},
		{"<carol>", "<worksFor>", "<DeptCS>"},
		{"<carol>", "<age>", `"31"`},
	} {
		if err := r.Add(e[0], e[1], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	intLit := func(n string) string { return `"` + n + `"^^<http://www.w3.org/2001/XMLSchema#integer>` }

	// GROUP BY with COUNT: DeptCS employs alice and carol, GroupA bob.
	rows, err := r.Select(`SELECT ?org (COUNT(*) AS ?n) WHERE {
  ?who <worksFor> ?org
} GROUP BY ?org ORDER BY DESC(?n) ?org`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0]["org"] != "<DeptCS>" || rows[0]["n"] != intLit("2") {
		t.Fatalf("row 0 = %v", rows[0])
	}
	if rows[1]["org"] != "<GroupA>" || rows[1]["n"] != intLit("1") {
		t.Fatalf("row 1 = %v", rows[1])
	}

	// Implicit group: MIN/MAX/SUM/AVG/COUNT over everyone with an age.
	rows, err = r.Select(`SELECT (COUNT(?a) AS ?n) (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) (SUM(?a) AS ?sum) (AVG(?a) AS ?avg)
WHERE { ?who <age> ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	row := rows[0]
	if row["n"] != intLit("3") || row["lo"] != `"7"` || row["hi"] != `"42"` ||
		row["sum"] != intLit("80") {
		t.Fatalf("row = %v", row)
	}
	if row["avg"] != `"26.666666666666668"^^<http://www.w3.org/2001/XMLSchema#double>` {
		t.Fatalf("avg = %q", row["avg"])
	}

	// COUNT(DISTINCT ?v) vs COUNT(?v).
	rows, err = r.Select(`SELECT (COUNT(?org) AS ?all) (COUNT(DISTINCT ?org) AS ?orgs) WHERE { ?who <worksFor> ?org }`)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0]["all"] != intLit("3") || rows[0]["orgs"] != intLit("2") {
		t.Fatalf("distinct counts = %v", rows[0])
	}

	// Zero solutions: implicit group still answers, COUNT is 0, MIN
	// unbound (omitted).
	rows, err = r.Select(`SELECT (COUNT(?x) AS ?n) (MIN(?x) AS ?lo) WHERE { ?x <worksFor> <Nowhere0> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["n"] != intLit("0") {
		t.Fatalf("empty-set aggregate rows = %v", rows)
	}
	if _, ok := rows[0]["lo"]; ok {
		t.Fatalf("MIN over nothing must be unbound: %v", rows[0])
	}
	// ... but an explicit GROUP BY over zero solutions yields zero rows.
	rows, err = r.Select(`SELECT ?org (COUNT(*) AS ?n) WHERE { ?x <worksFor> <Nowhere0> . ?x <memberOf> ?org } GROUP BY ?org`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("grouped empty-set rows = %v", rows)
	}

	// COUNT over an optionally-bound variable counts only bound cells.
	rows, err = r.Select(`SELECT (COUNT(*) AS ?people) (COUNT(?a) AS ?aged) WHERE {
  ?who <memberOf> ?org OPTIONAL { ?who <age> ?a }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0]["people"] != intLit("3") || rows[0]["aged"] != intLit("3") {
		t.Fatalf("optional counts = %v", rows[0])
	}
}

func TestSelectAggregateErrors(t *testing.T) {
	r := universityFixture(t)
	for q, want := range map[string]string{
		`SELECT ?org (COUNT(*) AS ?n) WHERE { ?x <worksFor> ?o } GROUP BY ?org`:         "GROUP BY variable ?org",
		`SELECT (SUM(?zzz) AS ?n) WHERE { ?x <worksFor> ?o }`:                           "aggregate variable ?zzz",
		`SELECT ?o (COUNT(*) AS ?n) WHERE { ?x <worksFor> ?o } GROUP BY ?o ORDER BY ?x`: "neither a GROUP BY key nor a projected aggregate",
	} {
		_, err := r.Select(q)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s:\n  err = %v, want substring %q", q, err, want)
		}
	}
}

// ORDER BY and DISTINCT over partially-bound rows: unbound sorts
// before any bound term, and missing-vs-bound cells never collapse.
func TestSelectUnboundCellsInModifiers(t *testing.T) {
	r := universityFixture(t)
	rows, err := r.Select(`SELECT ?who ?org WHERE {
  { ?who <memberOf> ?org } UNION { ?who a <Professor> }
} ORDER BY ?org ?who`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// The professor branch row (no ?org) must sort first.
	if _, ok := rows[0]["org"]; ok {
		t.Fatalf("first row should have unbound ?org: %v", rows)
	}
	// DISTINCT keeps unbound-?org rows apart from every bound one: the
	// second branch repeats both members with ?org unbound, so all four
	// (?who, ?org) combinations survive deduplication.
	rows, err = r.Select(`SELECT DISTINCT ?who ?org WHERE {
  { ?who <memberOf> ?org } UNION { ?who <memberOf> ?x }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("distinct rows = %v", rows)
	}
	// ORDER BY a variable bound only inside OPTIONAL is legal.
	if _, err := r.Select(`SELECT ?who WHERE { ?who <memberOf> ?org OPTIONAL { ?who <age> ?a } } ORDER BY ?a`); err != nil {
		t.Fatal(err)
	}
}

// GROUP BY and DISTINCT over one cell key on the cell's ID alone: an
// unbound key is a group of its own, groups and distinct rows come out
// in first-seen order, and both agree with the same query keyed on a
// second, constant cell as well (a two-cell tuple key).
func TestOneCellGroupAndDistinctKeys(t *testing.T) {
	r := universityFixture(t)
	for _, e := range [][3]string{
		{"<bob>", inferray.Type, "<Student>"},
		{"<carol>", inferray.Type, "<Student>"},
		{"<dave>", inferray.Type, "<Student>"},
		{"<dave>", "<worksFor>", "<DeptCS>"},
		{"<erin>", inferray.Type, "<Student>"},
	} {
		if err := r.Add(e[0], e[1], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	rows := func(text string) []map[string]string {
		t.Helper()
		var out []map[string]string
		if _, err := r.ExecFunc(text, 0, nil, func(row map[string]string) bool {
			out = append(out, row)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	const where = `?who a ?c OPTIONAL { ?who <worksFor> ?org }`
	const constant = ` BIND("k" AS ?k)`

	// The groups as the WHERE solutions reveal them: ?org in first-seen
	// order ("" for unbound) and the rows of each.
	var order []string
	counts := map[string]int{}
	for _, row := range rows(`SELECT ?org WHERE { ` + where + ` }`) {
		if counts[row["org"]]++; counts[row["org"]] == 1 {
			order = append(order, row["org"])
		}
	}
	if counts[""] == 0 || len(order) < 3 {
		t.Fatalf("fixture: groups %v, want an unbound one beside two bound", counts)
	}
	intLit := func(n int) string { return fmt.Sprintf(`"%d"^^<http://www.w3.org/2001/XMLSchema#integer>`, n) }

	grouped := rows(`SELECT ?org (COUNT(*) AS ?n) WHERE { ` + where + ` } GROUP BY ?org`)
	if len(grouped) != len(order) {
		t.Fatalf("%d groups, want %d: %v", len(grouped), len(order), grouped)
	}
	for i, row := range grouped {
		if _, bound := row["org"]; bound != (order[i] != "") || row["org"] != order[i] || row["n"] != intLit(counts[order[i]]) {
			t.Fatalf("group %d = %v, want org %q with %d rows", i, row, order[i], counts[order[i]])
		}
	}
	if wide := rows(`SELECT ?org (COUNT(*) AS ?n) WHERE { ` + where + constant + ` } GROUP BY ?org ?k`); fmt.Sprint(wide) != fmt.Sprint(grouped) {
		t.Fatalf("GROUP BY ?org ?k = %v\nGROUP BY ?org   = %v", wide, grouped)
	}

	for _, text := range []string{
		`SELECT DISTINCT ?org WHERE { ` + where + ` }`,
		`SELECT DISTINCT ?org ?k WHERE { ` + where + constant + ` }`,
	} {
		distinct := rows(text)
		if len(distinct) != len(order) {
			t.Fatalf("%s: %d rows, want %d: %v", text, len(distinct), len(order), distinct)
		}
		for i, row := range distinct {
			if _, bound := row["org"]; bound != (order[i] != "") || row["org"] != order[i] {
				t.Fatalf("%s: row %d = %v, want org %q", text, i, row, order[i])
			}
		}
	}
}

// The ORDER BY + LIMIT top-k heap must deliver exactly what the full
// sort delivered, offsets included.
func TestSelectOrderByLimitMatchesFullSort(t *testing.T) {
	r := inferray.New(inferray.WithFragment(inferray.RhoDF))
	for i := 0; i < 200; i++ {
		if err := r.Add(fmt.Sprintf("<s%03d>", i), "<p>", fmt.Sprintf("<o%03d>", (i*37)%100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	full, err := r.Select(`SELECT ?s ?o WHERE { ?s <p> ?o } ORDER BY ?o DESC(?s)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ offset, limit int }{{0, 1}, {0, 10}, {5, 7}, {190, 20}, {0, 0}} {
		q := fmt.Sprintf(`SELECT ?s ?o WHERE { ?s <p> ?o } ORDER BY ?o DESC(?s) LIMIT %d OFFSET %d`, c.limit, c.offset)
		got, err := r.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		want := full
		if c.offset < len(want) {
			want = want[c.offset:]
		} else {
			want = nil
		}
		if c.limit < len(want) {
			want = want[:c.limit]
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i]["s"] != want[i]["s"] || got[i]["o"] != want[i]["o"] {
				t.Fatalf("%s: row %d = %v, want %v", q, i, got[i], want[i])
			}
		}
	}
}

// VALUES joins the group's graph pattern before the OPTIONAL left
// join: a VALUES binding with no matching optional extension survives
// as the null row (it must never be dropped by a later join).
func TestSelectValuesBeforeOptional(t *testing.T) {
	r := universityFixture(t)
	// <carol> has no age; <dave> appears in no triple at all.
	vars, rows, err := r.SelectWithVars(`SELECT * WHERE {
  VALUES ?x { <carol> <dave> }
  OPTIONAL { ?x <worksFor> ?d }
} ORDER BY ?x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 2 || len(rows) != 2 {
		t.Fatalf("vars=%v rows=%v", vars, rows)
	}
	if rows[0]["x"] != "<carol>" || rows[1]["x"] != "<dave>" {
		t.Fatalf("rows = %v", rows)
	}
	for _, row := range rows {
		if _, ok := row["d"]; ok {
			t.Fatalf("unmatched optional must stay unbound: %v", row)
		}
	}
	// A VALUES binding that does match still extends.
	rows, err = r.Select(`SELECT * WHERE { VALUES ?x { <alice> <dave> } OPTIONAL { ?x <worksFor> ?d } } ORDER BY ?x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0]["d"] != "<DeptCS>" {
		t.Fatalf("rows = %v", rows)
	}
	if _, ok := rows[1]["d"]; ok {
		t.Fatalf("dave must stay unmatched: %v", rows[1])
	}
}

// A FILTER inside OPTIONAL can reference a BIND target: SPARQL binds
// it before a later OPTIONAL, so the filter must see the computed
// value, not an unbound variable.
func TestSelectOptionalFilterSeesBind(t *testing.T) {
	r := universityFixture(t)
	for _, e := range [][3]string{
		{"<alice>", "<limit>", `"5"`},
		{"<alice>", "<score>", `"9"`},
		{"<bob>", "<limit>", `"10"`},
		{"<bob>", "<score>", `"3"`},
	} {
		if err := r.Add(e[0], e[1], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	rows, err := r.Select(`SELECT ?x ?z WHERE {
  ?x <limit> ?o .
  BIND(?o AS ?lim)
  OPTIONAL { ?x <score> ?z . FILTER(?z > ?lim) }
} ORDER BY ?x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0]["x"] != "<alice>" || rows[0]["z"] != `"9"` {
		t.Fatalf("alice's 9 > 5 must pass the inner filter: %v", rows[0])
	}
	if _, ok := rows[1]["z"]; ok {
		t.Fatalf("bob's 3 > 10 must fail into the null row: %v", rows[1])
	}
}

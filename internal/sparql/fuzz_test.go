package sparql

import (
	"strings"
	"testing"
)

// FuzzParseSelect throws arbitrary byte streams at the query parser,
// ParseQuery, SELECT and ASK alike. The contract under fuzzing: never
// panic, never hang, and on success return a SELECT or an ASK that
// upholds the structural invariants the evaluator relies on — non-empty
// groups of 3-term patterns, positioned errors on failure. The checked-in corpus seeds valid queries, every
// documented rejected construct, and pathological token streams.
// FuzzParseUpdate throws arbitrary byte streams at the update parser.
// The contract: never panic, never hang, positioned errors on failure,
// and on success the structural invariants the executor relies on —
// a non-empty operation list, ground triples in the DATA forms, at
// least one pattern (and no blank nodes) in DELETE WHERE.
func FuzzParseUpdate(f *testing.F) {
	seeds := []string{
		// Valid requests across the three forms.
		`INSERT DATA { <s> <p> <o> }`,
		`PREFIX ex: <http://e/> INSERT DATA { ex:a ex:p ex:b , ex:c ; a ex:T . _:b <q> "v"@en }`,
		`DELETE DATA { <s> <p> "42"^^<http://www.w3.org/2001/XMLSchema#int> }`,
		`DELETE WHERE { ?x <p> ?y . ?x a <T> }`,
		`INSERT DATA { <a> <p> <b> } ; DELETE DATA { <a> <p> <b> } ; DELETE WHERE { ?s ?p ?o }`,
		`INSERT DATA { <s> <p> <o> } ;`,
		"INSERT DATA { <s> <p> <o> } ;\nPREFIX ex: <http://e/>\nDELETE DATA { ex:s ex:p ex:o }",
		// Every documented rejected construct.
		`INSERT { ?s <p> <o> } WHERE { ?s a <T> }`,
		`DELETE { ?s <p> ?o } WHERE { ?s <p> ?o }`,
		`INSERT DATA { ?s <p> <o> }`,
		`DELETE DATA { _:b <p> <o> }`,
		`DELETE WHERE { _:b <p> ?o }`,
		`DELETE WHERE { }`,
		`LOAD <http://e/g>`,
		`CLEAR ALL`,
		`WITH <g> DELETE WHERE { ?s ?p ?o }`,
		`SELECT * WHERE { ?s ?p ?o }`,
		`INSERT DATA { GRAPH <g> { <s> <p> <o> } }`,
		`DELETE WHERE { ?s ?p ?o FILTER(?p = <x>) }`,
		// Pathological token streams.
		``,
		`INSERT`,
		`INSERT DATA {`,
		`INSERT DATA { <s> <p> "unterminated`,
		`DELETE DATA { <s> <p> <o> } ; ; ;`,
		`insert data { <s> <p> <o> }`,
		`{{{{{{{{`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		u, err := ParseUpdate(text)
		if err != nil {
			if pe, ok := err.(*ParseError); ok {
				if pe.Line < 1 || pe.Col < 1 {
					t.Fatalf("non-positive error position %d:%d for %q", pe.Line, pe.Col, text)
				}
			}
			return
		}
		if len(u.Ops) == 0 {
			t.Fatalf("accepted update with no operations: %q", text)
		}
		for _, op := range u.Ops {
			switch op.Kind {
			case UpdateInsertData, UpdateDeleteData:
				if len(op.Patterns) != 0 {
					t.Fatalf("DATA operation carries patterns in %q", text)
				}
				for _, tr := range op.Triples {
					for _, term := range tr {
						if term == "" || strings.HasPrefix(term, "?") {
							t.Fatalf("non-ground term %q in DATA operation of %q", term, text)
						}
						if op.Kind == UpdateDeleteData && strings.HasPrefix(term, "_:") {
							t.Fatalf("blank node %q accepted in DELETE DATA of %q", term, text)
						}
					}
				}
			case UpdateDeleteWhere:
				if len(op.Patterns) == 0 {
					t.Fatalf("accepted empty DELETE WHERE in %q", text)
				}
				if len(op.Triples) != 0 {
					t.Fatalf("DELETE WHERE carries ground triples in %q", text)
				}
				for _, pat := range op.Patterns {
					for _, term := range pat {
						if term == "" {
							t.Fatalf("empty term in DELETE WHERE of %q", text)
						}
						if strings.HasPrefix(term, "_:") {
							t.Fatalf("blank node %q accepted in DELETE WHERE of %q", term, text)
						}
					}
				}
			default:
				t.Fatalf("unknown op kind %d in %q", op.Kind, text)
			}
		}
	})
}

func FuzzParseSelect(f *testing.F) {
	seeds := []string{
		// Valid queries across the dialect.
		`SELECT * WHERE { ?s ?p ?o }`,
		`PREFIX ex: <http://e/> SELECT ?x WHERE { ?x a ex:T . ?x ex:p "v"@en } LIMIT 5`,
		`SELECT DISTINCT ?x ?y WHERE { ?x <p> ?y . FILTER(?y > 3 && regex(?x, "^a", "i")) } ORDER BY DESC(?y) LIMIT 10 OFFSET 2`,
		`SELECT ?x WHERE { { ?x <p> <A> } UNION { ?x <q> <B> . FILTER bound(?x) } }`,
		`ASK { ?s <p> "42"^^<http://www.w3.org/2001/XMLSchema#int> . FILTER(!(?s = <x>)) }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER(?y != "a||b" || ?y <= 3.5) }`,
		// The SPARQL 1.1 expansion: OPTIONAL, BIND, VALUES, list sugar,
		// and GROUP BY aggregates.
		`SELECT ?x ?a WHERE { ?x <worksFor> ?d OPTIONAL { ?x <age> ?a . FILTER(?a > 10) } }`,
		`SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z } OPTIONAL { ?y <r> ?w } FILTER(!bound(?z)) }`,
		`SELECT ?x ?y WHERE { ?x <p> ?o . BIND(?o AS ?y) . BIND(42 AS ?tag) }`,
		`SELECT ?y WHERE { BIND("lonely" AS ?y) }`,
		`SELECT * WHERE { VALUES ?x { <a> ex:b "lit"@fr 3.5 } ?x <p> ?y }`,
		`SELECT * WHERE { ?x <p> ?y . VALUES (?x ?y) { (<a> UNDEF) (UNDEF "b") } }`,
		`PREFIX ex: <http://e/> SELECT * WHERE { ex:s ex:p ex:a , ex:b ; ex:q "v" ; a ex:T . }`,
		`SELECT * WHERE { <s> <p> <a> ; . <s2> <q> 7 ; }`,
		`SELECT ?d (COUNT(*) AS ?n) (AVG(?a) AS ?m) WHERE { ?x <in> ?d ; <age> ?a } GROUP BY ?d ORDER BY DESC(?n) LIMIT 3`,
		`SELECT (COUNT(DISTINCT ?x) AS ?n) (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) (SUM(?a) AS ?s) WHERE { ?x <age> ?a }`,
		`SELECT * WHERE { { ?x <p> ?y OPTIONAL { ?x <q> ?z } } UNION { VALUES ?x { <a> } } }`,
		// Every documented rejected construct.
		`SELECT * WHERE { ?s ?p ?o MINUS { ?s <q> ?r } }`,
		`SELECT * WHERE { ?s <a>/<b> ?o }`,
		`SELECT * WHERE { { SELECT ?s WHERE { ?s ?p ?o } } }`,
		`SELECT * WHERE { ?s ?p ?o } GROUP BY ?s`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s HAVING(?n > 1)`,
		`SELECT * WHERE { ?s ?p ?o OPTIONAL { ?a <p> ?b OPTIONAL { ?b <q> ?c } } }`,
		`SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?s ?p ?o }`,
		`CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }`,
		`SELECT * WHERE { ?s <p> <a> ;; }`,
		`SELECT * WHERE { ?s ?p ?o . FILTER(isBlank(?s)) }`,
		`SELECT * WHERE { GRAPH <g> { ?s ?p ?o } }`,
		`SELECT * WHERE { VALUES (?x ?y) { (<a>) } }`,
		// Pathological token streams.
		``,
		`SELECT`,
		`SELECT ?x WHERE {`,
		`SELECT ?x WHERE { ?x <p `,
		`SELECT ?x WHERE { ?x <p> "unterminated`,
		`SELECT ?x WHERE { ?x <p> "esc\` + `" }`,
		`{{{{{{{{`,
		`FILTER(((((`,
		`SELECT * WHERE { ?s ?p ?o } LIMIT 99999999999999999999`,
		`PREFIX : <` + strings.Repeat("x", 300) + `> SELECT * WHERE { :a :b :c }`,
		`SELECT * WHERE { ?s ?p ?o . FILTER regex(?s, "(((") }`,
		"SELECT ?x\nWHERE # comment\n{ ?x ?y ?z . }",
		`select ?x where { ?x <p> ?y } order by`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := ParseQuery(text)
		if err != nil {
			if pe, ok := err.(*ParseError); ok {
				if pe.Line < 1 || pe.Col < 1 {
					t.Fatalf("non-positive error position %d:%d for %q", pe.Line, pe.Col, text)
				}
			}
			return
		}
		if q.Form != FormSelect && q.Form != FormAsk {
			t.Fatalf("accepted a query of form %d: %q", q.Form, text)
		}
		if len(q.Groups) == 0 {
			t.Fatalf("accepted query with no groups: %q", text)
		}
		checkPatterns := func(pats [][3]string) {
			for _, pat := range pats {
				for _, term := range pat {
					if term == "" {
						t.Fatalf("empty term in %q", text)
					}
				}
			}
		}
		for _, g := range q.Groups {
			if len(g.Patterns) == 0 && len(g.Optionals) == 0 &&
				len(g.Binds) == 0 && len(g.Values) == 0 {
				t.Fatalf("accepted empty basic graph pattern: %q", text)
			}
			checkPatterns(g.Patterns)
			for _, o := range g.Optionals {
				if len(o.Patterns) == 0 {
					t.Fatalf("accepted empty OPTIONAL: %q", text)
				}
				checkPatterns(o.Patterns)
			}
			for _, b := range g.Binds {
				if b.Var == "" || b.Expr == nil {
					t.Fatalf("malformed BIND in %q", text)
				}
			}
			for _, v := range g.Values {
				if len(v.Vars) == 0 {
					t.Fatalf("VALUES with no variables in %q", text)
				}
				for _, row := range v.Rows {
					if len(row) != len(v.Vars) {
						t.Fatalf("ragged VALUES row in %q", text)
					}
				}
			}
		}
		for _, it := range q.Items {
			if it.Name == "" {
				t.Fatalf("projection item with no name in %q", text)
			}
			if it.Agg != nil && it.Agg.Star && it.Agg.Func != AggCount {
				t.Fatalf("star aggregate other than COUNT in %q", text)
			}
		}
		if q.Limit < 0 || q.Offset < 0 {
			t.Fatalf("negative limit/offset parsed from %q", text)
		}
	})
}

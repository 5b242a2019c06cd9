package inferray_test

// Brute-force reference equivalence for the SPARQL pipeline — the
// dialect-expansion counterpart of internal/query's TestSolveQuick.
// refSelect below evaluates a parsed query naively over the closure's
// surface triples: nested-loop pattern matching, per-solution OPTIONAL
// extension, BIND/VALUES/FILTER in the documented order, naive
// aggregation, stable sort. Random queries over random datasets must
// produce exactly the same multiset of rows (and the same order, when
// ORDER BY makes it observable) through Reasoner.Select's planner,
// merge-join executor, aggregation stage, and top-k ORDER BY buffer.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"inferray"
	"inferray/internal/sparql"
)

// refEvalGroup computes one UNION branch's solutions naively.
func refEvalGroup(triples [][3]string, g sparql.Group) []map[string]string {
	match := func(pat [3]string, tr [3]string, binding map[string]string) (map[string]string, bool) {
		out := binding
		cloned := false
		for i := 0; i < 3; i++ {
			p := pat[i]
			if strings.HasPrefix(p, "?") {
				name := p[1:]
				if cur, ok := out[name]; ok {
					if cur != tr[i] {
						return nil, false
					}
					continue
				}
				if !cloned {
					c := make(map[string]string, len(out)+1)
					for k, v := range out {
						c[k] = v
					}
					out, cloned = c, true
				}
				out[name] = tr[i]
				continue
			}
			if p != tr[i] {
				return nil, false
			}
		}
		return out, true
	}
	var bgp func(pats [][3]string, binding map[string]string) []map[string]string
	bgp = func(pats [][3]string, binding map[string]string) []map[string]string {
		if len(pats) == 0 {
			return []map[string]string{binding}
		}
		var out []map[string]string
		for _, tr := range triples {
			if b, ok := match(pats[0], tr, binding); ok {
				out = append(out, bgp(pats[1:], b)...)
			}
		}
		return out
	}

	// The documented group order: required patterns ⋈ VALUES first,
	// OPTIONAL left joins against the joined solutions, then BINDs and
	// FILTERs.
	sols := bgp(g.Patterns, map[string]string{})
	for _, vb := range g.Values {
		var next []map[string]string
		for _, s := range sols {
			for _, vrow := range vb.Rows {
				merged := make(map[string]string, len(s)+len(vb.Vars))
				for k, v := range s {
					merged[k] = v
				}
				ok := true
				for i, name := range vb.Vars {
					term := vrow[i]
					if term == "" {
						continue
					}
					if cur, bound := merged[name]; bound {
						if cur != term {
							ok = false
							break
						}
					} else {
						merged[name] = term
					}
				}
				if ok {
					next = append(next, merged)
				}
			}
		}
		sols = next
	}
	// OPTIONAL FILTERs see BIND targets, resolved on demand over the
	// variables bound at that point of the left join.
	bindExpr := map[string]sparql.Expr{}
	for _, b := range g.Binds {
		bindExpr[b.Var] = b.Expr
	}
	optLookup := func(s map[string]string) func(string) (string, bool) {
		inProgress := map[string]bool{}
		var lookup func(string) (string, bool)
		lookup = func(name string) (string, bool) {
			if v, ok := s[name]; ok {
				return v, true
			}
			if e, ok := bindExpr[name]; ok && !inProgress[name] {
				inProgress[name] = true
				term, okEval := sparql.EvalTerm(e, lookup)
				delete(inProgress, name)
				return term, okEval
			}
			return "", false
		}
		return lookup
	}
	for _, og := range g.Optionals {
		var next []map[string]string
		for _, s := range sols {
			var ext []map[string]string
			for _, cand := range bgp(og.Patterns, s) {
				ok := true
				for _, f := range og.Filters {
					if !sparql.Eval(f, optLookup(cand)) {
						ok = false
						break
					}
				}
				if ok {
					ext = append(ext, cand)
				}
			}
			if len(ext) == 0 {
				next = append(next, s)
			} else {
				next = append(next, ext...)
			}
		}
		sols = next
	}
	for _, b := range g.Binds {
		for _, s := range sols {
			if _, ok := s[b.Var]; ok {
				continue
			}
			if term, ok := sparql.EvalTerm(b.Expr, refLookup(s)); ok {
				s[b.Var] = term
			}
		}
	}
	var out []map[string]string
	for _, s := range sols {
		ok := true
		for _, f := range g.Filters {
			if !sparql.Eval(f, refLookup(s)) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	return out
}

func refLookup(m map[string]string) func(string) (string, bool) {
	return func(name string) (string, bool) {
		v, ok := m[name]
		return v, ok
	}
}

// refSelect evaluates a SELECT query naively over surface triples.
func refSelect(t *testing.T, triples [][3]string, queryText string) []map[string]string {
	t.Helper()
	q, err := sparql.ParseQuery(queryText)
	if err != nil {
		t.Fatalf("ref parse %s: %v", queryText, err)
	}
	if q.Form != sparql.FormSelect {
		t.Fatalf("ref parse %s: not a SELECT query", queryText)
	}
	var sols []map[string]string
	for _, g := range q.Groups {
		sols = append(sols, refEvalGroup(triples, g)...)
	}

	projected := q.Vars
	if len(projected) == 0 {
		// SELECT *: variables in order of first appearance.
		seen := map[string]bool{}
		reg := func(pats [][3]string) {
			for _, pat := range pats {
				for _, term := range pat {
					if strings.HasPrefix(term, "?") && !seen[term[1:]] {
						seen[term[1:]] = true
						projected = append(projected, term[1:])
					}
				}
			}
		}
		for _, g := range q.Groups {
			reg(g.Patterns)
			for _, o := range g.Optionals {
				reg(o.Patterns)
			}
			for _, b := range g.Binds {
				if !seen[b.Var] {
					seen[b.Var] = true
					projected = append(projected, b.Var)
				}
			}
			for _, v := range g.Values {
				for _, name := range v.Vars {
					if !seen[name] {
						seen[name] = true
						projected = append(projected, name)
					}
				}
			}
		}
	}

	if q.HasAggregates() || len(q.GroupBy) > 0 {
		sols = refAggregate(q, sols)
	}

	if len(q.OrderBy) > 0 {
		sort.SliceStable(sols, func(i, j int) bool {
			for _, k := range q.OrderBy {
				c := sparql.CompareTerms(sols[i][k.Var], sols[j][k.Var])
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
	}

	var rows []map[string]string
	seen := map[string]bool{}
	for _, s := range sols {
		row := make(map[string]string, len(projected))
		for _, v := range projected {
			if val, ok := s[v]; ok {
				row[v] = val
			}
		}
		if q.Distinct {
			key := refKey(projected, row)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		rows = append(rows, row)
	}
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.HasLimit && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	return rows
}

// refAggregate groups solutions and computes the aggregates naively,
// following the documented semantics (unbound cells skipped, SUM/AVG
// unbound on a non-numeric value, MIN/MAX by CompareTerms).
func refAggregate(q *sparql.Query, sols []map[string]string) []map[string]string {
	type bucket struct {
		repr map[string]string
		rows []map[string]string
	}
	buckets := map[string]*bucket{}
	var order []string
	for _, s := range sols {
		key := refKey(q.GroupBy, s)
		b, ok := buckets[key]
		if !ok {
			b = &bucket{repr: map[string]string{}}
			for _, v := range q.GroupBy {
				if val, bound := s[v]; bound {
					b.repr[v] = val
				}
			}
			buckets[key] = b
			order = append(order, key)
		}
		b.rows = append(b.rows, s)
	}
	if len(buckets) == 0 && len(q.GroupBy) == 0 {
		buckets[""] = &bucket{repr: map[string]string{}}
		order = append(order, "")
	}
	var out []map[string]string
	for _, key := range order {
		b := buckets[key]
		row := map[string]string{}
		for k, v := range b.repr {
			row[k] = v
		}
		for _, it := range q.Items {
			if it.Agg == nil {
				continue
			}
			var vals []string
			if it.Agg.Star {
				for range b.rows {
					vals = append(vals, "")
				}
			} else {
				dedup := map[string]bool{}
				for _, s := range b.rows {
					v, bound := s[it.Agg.Var]
					if !bound {
						continue
					}
					if it.Agg.Distinct {
						if dedup[v] {
							continue
						}
						dedup[v] = true
					}
					vals = append(vals, v)
				}
			}
			switch it.Agg.Func {
			case sparql.AggCount:
				row[it.Name] = sparql.NumericLiteral(float64(len(vals)))
			case sparql.AggSum, sparql.AggAvg:
				sum, numOK := 0.0, true
				for _, v := range vals {
					f, ok := sparql.NumericTerm(v)
					if !ok {
						numOK = false
						break
					}
					sum += f
				}
				if !numOK {
					continue // unbound cell
				}
				if it.Agg.Func == sparql.AggSum {
					row[it.Name] = sparql.NumericLiteral(sum)
				} else if len(vals) == 0 {
					row[it.Name] = sparql.NumericLiteral(0)
				} else {
					row[it.Name] = sparql.NumericLiteral(sum / float64(len(vals)))
				}
			case sparql.AggMin, sparql.AggMax:
				if len(vals) == 0 {
					continue
				}
				best := vals[0]
				for _, v := range vals[1:] {
					c := sparql.CompareTerms(v, best)
					if (it.Agg.Func == sparql.AggMin && c < 0) || (it.Agg.Func == sparql.AggMax && c > 0) {
						best = v
					}
				}
				row[it.Name] = best
			}
		}
		out = append(out, row)
	}
	return out
}

// refKey serializes selected cells unambiguously (same contract as the
// pipeline's solutionKey, reimplemented here so the test is
// independent).
func refKey(vars []string, row map[string]string) string {
	var b strings.Builder
	for _, v := range vars {
		if val, ok := row[v]; ok {
			fmt.Fprintf(&b, "B%d:%s", len(val), val)
		} else {
			b.WriteByte('U')
		}
	}
	return b.String()
}

// orderKeysOf re-parses the query for its ORDER BY keys.
func orderKeysOf(t *testing.T, queryText string) []sparql.OrderKey {
	t.Helper()
	q, err := sparql.ParseQuery(queryText)
	if err != nil {
		t.Fatal(err)
	}
	if q.Form != sparql.FormSelect {
		t.Fatalf("%s: not a SELECT query", queryText)
	}
	return q.OrderBy
}

// rowMultiset canonicalizes rows for order-insensitive comparison.
func rowMultiset(rows []map[string]string) map[string]int {
	out := map[string]int{}
	for _, row := range rows {
		keys := make([]string, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%d:%s;", k, len(row[k]), row[k])
		}
		out[b.String()]++
	}
	return out
}

// refFixture builds a randomized store and returns the reasoner plus
// the closure's surface triples for the reference evaluator.
func refFixture(t *testing.T, rng *rand.Rand) (*inferray.Reasoner, [][3]string) {
	t.Helper()
	r := inferray.New(inferray.WithFragment(inferray.RhoDF))
	subjects := []string{"<s0>", "<s1>", "<s2>", "<s3>", "<s4>"}
	objects := []string{"<s0>", "<s1>", "<s2>", `"3"`, `"15"`, `"x"`}
	preds := []string{"<p>", "<q>", "<r>"}
	n := 10 + rng.Intn(25)
	for i := 0; i < n; i++ {
		s := subjects[rng.Intn(len(subjects))]
		p := preds[rng.Intn(len(preds))]
		o := objects[rng.Intn(len(objects))]
		if err := r.Add(s, p, o); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	var triples [][3]string
	r.Triples(func(tr inferray.Triple) bool {
		triples = append(triples, [3]string{tr.S, tr.P, tr.O})
		return true
	})
	return r, triples
}

// TestSelectEquivalenceQuick runs randomized queries exercising the
// whole expanded dialect against the brute-force reference.
func TestSelectEquivalenceQuick(t *testing.T) {
	templates := []string{
		`SELECT * WHERE { ?a <p> ?b }`,
		`SELECT ?a ?c WHERE { ?a <p> ?b . ?b <q> ?c }`,
		`SELECT * WHERE { ?a <p> ?b OPTIONAL { ?b <q> ?c } }`,
		`SELECT * WHERE { ?a <p> ?b OPTIONAL { ?a <q> ?c . FILTER(?c != <s1>) } }`,
		`SELECT * WHERE { ?a <p> ?b OPTIONAL { ?b <q> ?c } OPTIONAL { ?b <r> ?d } }`,
		`SELECT ?a ?b ?x WHERE { ?a <p> ?b . BIND(?a AS ?x) }`,
		`SELECT * WHERE { ?a <p> ?b . BIND(?b AS ?x) OPTIONAL { ?a <r> ?c } }`,
		`SELECT * WHERE { VALUES ?a { <s0> <s1> <s9> } ?a <p> ?b }`,
		`SELECT * WHERE { ?a <p> ?b . VALUES (?a ?tag) { (<s0> "zero") (UNDEF "any") } }`,
		`SELECT ?a ?o WHERE { ?a <p> ?o ; <q> ?o }`,
		`SELECT ?a WHERE { ?a <p> "3" , "15" }`,
		`SELECT DISTINCT ?a ?c WHERE { { ?a <p> ?b } UNION { ?a <q> ?c } }`,
		`SELECT * WHERE { { ?a <p> ?b OPTIONAL { ?a <q> ?c } } UNION { ?a <r> ?b } } ORDER BY ?b ?a ?c`,
		`SELECT ?a ?b WHERE { ?a <p> ?b . FILTER(?b > 2 || !bound(?b)) } ORDER BY DESC(?b) ?a`,
		`SELECT ?a (COUNT(*) AS ?n) WHERE { ?a <p> ?b } GROUP BY ?a ORDER BY ?a`,
		`SELECT ?a (COUNT(DISTINCT ?b) AS ?n) (MIN(?b) AS ?lo) WHERE { ?a <p> ?b } GROUP BY ?a ORDER BY ?a`,
		`SELECT (SUM(?b) AS ?sum) (AVG(?b) AS ?avg) (MAX(?b) AS ?hi) WHERE { ?a <q> ?b }`,
		`SELECT ?a (COUNT(?c) AS ?n) WHERE { ?a <p> ?b OPTIONAL { ?a <q> ?c } } GROUP BY ?a ORDER BY ?a`,
		`SELECT ?b (COUNT(*) AS ?n) WHERE { { ?a <p> ?b } UNION { ?a <q> ?b } } GROUP BY ?b ORDER BY ?b`,
		`SELECT * WHERE { VALUES ?a { <s0> <s9> } OPTIONAL { ?a <p> ?b } }`,
		`SELECT * WHERE { VALUES (?a ?b) { (<s0> UNDEF) (UNDEF <s1>) } OPTIONAL { ?a <p> ?b } }`,
		`SELECT * WHERE { ?a <p> ?o . BIND(?o AS ?lim) OPTIONAL { ?a <q> ?z . FILTER(?z != ?lim) } }`,
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, triples := refFixture(t, rng)
		for _, q := range templates {
			got, err := r.Select(q)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, q, err)
			}
			want := refSelect(t, triples, q)
			gm, wm := rowMultiset(got), rowMultiset(want)
			if len(gm) != len(wm) {
				t.Fatalf("seed %d: %s:\n  engine %v\n  ref    %v", seed, q, got, want)
			}
			for k, n := range wm {
				if gm[k] != n {
					t.Fatalf("seed %d: %s:\n  engine %v\n  ref    %v\n  first mismatch %q (engine %d, ref %d)",
						seed, q, got, want, k, gm[k], n)
				}
			}
			// With ORDER BY, the sort keys must agree positionally even
			// when tied rows swap on other columns.
			if strings.Contains(q, "ORDER BY") {
				keys := orderKeysOf(t, q)
				for i := range want {
					for _, k := range keys {
						if got[i][k.Var] != want[i][k.Var] {
							t.Fatalf("seed %d: %s: position %d key ?%s = %q, ref %q",
								seed, q, i, k.Var, got[i][k.Var], want[i][k.Var])
						}
					}
				}
			}
		}
	}
}

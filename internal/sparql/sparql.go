// Package sparql parses a practical subset of SPARQL into the form the
// query engine evaluates. The paper positions Inferray as the
// storage-and-inference layer *under* a SPARQL engine (§1: triple
// stores "support SPARQL, a mature, feature-rich query language");
// after materialization every SPARQL basic graph pattern is answerable
// by plain index scans, which this front-end exposes.
//
// Supported: PREFIX declarations, SELECT (with DISTINCT, a projection
// list of variables and aggregates, or *) and ASK query forms, WHERE
// with a basic graph pattern (predicate-object lists with ';' and
// object lists with ',' included) or a UNION of braced groups, OPTIONAL
// blocks, BIND(expr AS ?var), inline VALUES data, FILTER (comparisons,
// logical connectives, regex, bound), GROUP BY with COUNT/SUM/MIN/MAX/
// AVG, ORDER BY (ASC/DESC), LIMIT, and OFFSET. The exact grammar, the
// term syntax, and the error message for every rejected construct
// (MINUS, property paths, subqueries, …) are documented in
// docs/SPARQL.md.
//
// Every parse failure is a *ParseError carrying the 1-based line and
// column of the offending token, so callers (the HTTP endpoint, the
// CLI) can point at the exact spot.
package sparql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"inferray/internal/rdf"
)

// Form distinguishes the supported query forms.
type Form int

// The query forms ParseQuery accepts.
const (
	FormSelect Form = iota
	FormAsk
)

// Query is a parsed SELECT or ASK query.
type Query struct {
	// Form is the query form: FormSelect or FormAsk.
	Form Form
	// Distinct is set by SELECT DISTINCT (and REDUCED, which this
	// dialect treats as DISTINCT — the spec permits any amount of
	// duplicate elimination under REDUCED).
	Distinct bool
	// Vars is the projection's output column names in declaration
	// order; empty means SELECT * (project every variable in order of
	// first appearance).
	Vars []string
	// Items is the structured projection, parallel to Vars: one entry
	// per projected column, plain variable or aggregate. Empty for
	// SELECT *.
	Items []SelectItem
	// GroupBy lists the GROUP BY keys (variable names without '?').
	GroupBy []string
	// Groups holds the UNION branches of the WHERE clause; a query
	// without UNION has exactly one group.
	Groups []Group
	// OrderBy lists the ORDER BY keys in priority order.
	OrderBy []OrderKey
	// Limit bounds the number of solutions when HasLimit is set.
	Limit    int
	HasLimit bool
	// Offset skips the first Offset solutions.
	Offset int
}

// HasAggregates reports whether any projection item is an aggregate
// (the query then runs through the grouping stage even without an
// explicit GROUP BY clause).
func (q *Query) HasAggregates() bool {
	for _, it := range q.Items {
		if it.Agg != nil {
			return true
		}
	}
	return false
}

// SelectItem is one projected column: a plain variable, or an
// aggregate written as (AGG(...) AS ?name).
type SelectItem struct {
	// Name is the output column (variable name without '?').
	Name string
	// Agg is the aggregate call; nil for a plain variable.
	Agg *Aggregate
}

// Group is one UNION branch: a basic graph pattern plus the OPTIONAL
// blocks, BINDs, VALUES data, and FILTER constraints written inside its
// braces.
type Group struct {
	// Patterns is the basic graph pattern; terms are N-Triples surface
	// forms, with variables as "?name".
	Patterns [][3]string
	// Optionals are the group's OPTIONAL blocks, left-joined in order
	// after Patterns.
	Optionals []Optional
	// Binds are the group's BIND(expr AS ?var) assignments, evaluated
	// in order after the graph patterns.
	Binds []Bind
	// Values are the group's inline VALUES blocks, each joined with the
	// group's solutions.
	Values []Values
	// Filters are the group's FILTER constraints; a solution must pass
	// all of them.
	Filters []Expr
}

// Optional is one OPTIONAL block: a basic graph pattern plus FILTERs
// that are part of the left-join condition (SPARQL's three-valued
// semantics: a filter that errors on unbound rejects only the
// extension, never the base solution).
type Optional struct {
	// Patterns is the OPTIONAL block's basic graph pattern.
	Patterns [][3]string
	// Filters constrain the block's extensions.
	Filters []Expr
}

// Bind is one BIND(expr AS ?var) assignment. When the expression
// errors for a solution (unbound variable, type mismatch), the target
// is left unbound, per SPARQL.
type Bind struct {
	// Var is the target variable name without '?'.
	Var string
	// Expr is the bound expression.
	Expr Expr
}

// Values is one inline VALUES data block.
type Values struct {
	// Vars are the block's variable names without '?'.
	Vars []string
	// Rows holds one term surface form per variable per row; "" is
	// UNDEF (compatible with anything).
	Rows [][]string
}

// OrderKey is one ORDER BY sort key.
type OrderKey struct {
	Var  string // variable name without '?'
	Desc bool   // DESC(...) inverts the order
}

// ParseError reports a parse failure with its position. Line and Col
// are 1-based; Token is the offending token's text, empty when the
// query ended too early.
type ParseError struct {
	Msg   string
	Line  int
	Col   int
	Token string
}

// Error formats the failure with its position, e.g.
// `sparql: MINUS is not supported at line 3:5 (near "MINUS")`.
func (e *ParseError) Error() string {
	if e.Token == "" {
		return fmt.Sprintf("sparql: %s at end of query", e.Msg)
	}
	return fmt.Sprintf("sparql: %s at line %d:%d (near %q)", e.Msg, e.Line, e.Col, e.Token)
}

// ParseQuery parses a SELECT or ASK query.
func ParseQuery(text string) (*Query, error) {
	p := &parser{src: text, toks: tokenize(text)}
	q := &Query{}
	prefixes := map[string]string{}

	for p.peekKeyword("PREFIX") {
		p.next()
		label, ok := p.nextPrefixLabel()
		if !ok {
			return nil, p.errHere("expected prefix label after PREFIX")
		}
		iri, ok := p.nextIRI()
		if !ok {
			return nil, p.errHere("expected IRI after prefix label")
		}
		prefixes[label] = iri
	}

	switch {
	case p.peekKeyword("SELECT"):
		q.Form = FormSelect
		p.next()
		if err := p.parseProjection(q); err != nil {
			return nil, err
		}
	case p.peekKeyword("ASK"):
		q.Form = FormAsk
		p.next()
	case p.peekKeyword("CONSTRUCT"), p.peekKeyword("DESCRIBE"):
		return nil, p.errHere("only SELECT and ASK query forms are supported")
	case p.peekKeyword("INSERT"), p.peekKeyword("DELETE"):
		return nil, p.errHere("INSERT and DELETE are update operations; send them to the update endpoint")
	default:
		return nil, p.errHere("expected SELECT or ASK")
	}

	if p.peekKeyword("WHERE") {
		p.next()
	}
	groups, err := p.parseWhere(prefixes)
	if err != nil {
		return nil, err
	}
	q.Groups = groups

	if err := p.parseModifiers(q); err != nil {
		return nil, err
	}
	if tok := p.peek(); tok != "" {
		for _, kw := range []string{"OPTIONAL", "UNION", "VALUES", "BIND", "FILTER"} {
			if strings.EqualFold(tok, kw) {
				return nil, p.errHere("%s must appear inside the WHERE clause", kw)
			}
		}
		switch {
		case strings.EqualFold(tok, "GROUP"):
			return nil, p.errHere("GROUP BY must appear before ORDER BY")
		case strings.EqualFold(tok, "HAVING"):
			return nil, p.errHere("HAVING is not supported")
		case strings.EqualFold(tok, "MINUS"):
			return nil, p.errHere("MINUS is not supported")
		}
		return nil, p.errHere("unsupported or trailing syntax")
	}
	for _, g := range q.Groups {
		if len(g.Patterns) == 0 && len(g.Optionals) == 0 &&
			len(g.Binds) == 0 && len(g.Values) == 0 {
			return nil, p.errHere("empty basic graph pattern")
		}
	}
	if err := p.validateGrouping(q); err != nil {
		return nil, err
	}
	return q, nil
}

// validateGrouping enforces the SPARQL grouping rules that need the
// whole query: aggregates and GROUP BY only in SELECT, no SELECT *
// under GROUP BY, plain projected variables covered by GROUP BY, and
// aggregate aliases distinct from every WHERE-clause variable.
func (p *parser) validateGrouping(q *Query) error {
	if q.Form == FormAsk {
		if len(q.GroupBy) > 0 {
			return p.errHere("GROUP BY is only valid in a SELECT query")
		}
		return nil
	}
	hasAgg := q.HasAggregates()
	if !hasAgg && len(q.GroupBy) == 0 {
		return nil
	}
	if len(q.Vars) == 0 {
		return p.errHere("SELECT * cannot be combined with GROUP BY")
	}
	grouped := map[string]bool{}
	for _, v := range q.GroupBy {
		grouped[v] = true
	}
	whereVars := map[string]bool{}
	for _, g := range q.Groups {
		for v := range groupVars(g) {
			whereVars[v] = true
		}
	}
	seen := map[string]bool{}
	for _, it := range q.Items {
		if seen[it.Name] && it.Agg != nil {
			return p.errHere("duplicate projection name ?%s", it.Name)
		}
		seen[it.Name] = true
		if it.Agg == nil {
			if !grouped[it.Name] {
				return p.errHere("variable ?%s must appear in GROUP BY or inside an aggregate", it.Name)
			}
			continue
		}
		if whereVars[it.Name] {
			return p.errHere("AS ?%s would rebind a WHERE-clause variable", it.Name)
		}
	}
	return nil
}

// groupVars collects every variable a group can bind: triple-pattern
// variables (required and OPTIONAL), BIND targets, and VALUES
// variables.
func groupVars(g Group) map[string]bool {
	vars := map[string]bool{}
	addPatterns := func(pats [][3]string) {
		for _, pat := range pats {
			for _, t := range pat {
				if strings.HasPrefix(t, "?") {
					vars[t[1:]] = true
				}
			}
		}
	}
	addPatterns(g.Patterns)
	for _, o := range g.Optionals {
		addPatterns(o.Patterns)
	}
	for _, b := range g.Binds {
		vars[b.Var] = true
	}
	for _, v := range g.Values {
		for _, name := range v.Vars {
			vars[name] = true
		}
	}
	return vars
}

// aggNames maps the projection's aggregate keywords to their functions.
var aggNames = map[string]AggFunc{
	"COUNT": AggCount,
	"SUM":   AggSum,
	"MIN":   AggMin,
	"MAX":   AggMax,
	"AVG":   AggAvg,
}

// parseProjection reads DISTINCT/REDUCED and the projection list — a
// mix of plain ?variables and (AGG(...) AS ?name) items — or *.
func (p *parser) parseProjection(q *Query) error {
	if p.peekKeyword("DISTINCT") || p.peekKeyword("REDUCED") {
		q.Distinct = true
		p.next()
	}
	if p.peekTok("*") {
		p.next()
		return nil
	}
	for {
		switch {
		case strings.HasPrefix(p.peek(), "?"):
			tok := p.next()
			if len(tok) == 1 {
				return p.errPrev("bare '?' is not a variable")
			}
			q.Vars = append(q.Vars, tok[1:])
			q.Items = append(q.Items, SelectItem{Name: tok[1:]})
			continue
		case p.peekTok("("):
			item, err := p.parseAggregateItem()
			if err != nil {
				return err
			}
			q.Vars = append(q.Vars, item.Name)
			q.Items = append(q.Items, item)
			continue
		}
		break
	}
	if len(q.Vars) == 0 {
		return p.errHere("SELECT needs a projection list or *")
	}
	return nil
}

// parseAggregateItem reads one (AGG([DISTINCT] ?var|*) AS ?name)
// projection item; the cursor sits on the opening '('.
func (p *parser) parseAggregateItem() (SelectItem, error) {
	var item SelectItem
	p.next() // consume '('
	fn, ok := aggNames[strings.ToUpper(p.peek())]
	if !ok {
		return item, p.errHere("expected an aggregate (COUNT, SUM, MIN, MAX, AVG) after '(' in the projection")
	}
	p.next()
	agg := &Aggregate{Func: fn}
	if !p.peekTok("(") {
		return item, p.errHere("expected '(' after the aggregate name")
	}
	p.next()
	if p.peekKeyword("DISTINCT") {
		agg.Distinct = true
		p.next()
	}
	switch {
	case p.peekTok("*"):
		if fn != AggCount {
			return item, p.errHere("only COUNT accepts *")
		}
		if agg.Distinct {
			return item, p.errHere("COUNT(DISTINCT *) is not supported")
		}
		agg.Star = true
		p.next()
	default:
		v, err := p.nextVar()
		if err != nil {
			return item, err
		}
		agg.Var = v
	}
	if !p.peekTok(")") {
		return item, p.errHere("expected ')' to close the aggregate argument")
	}
	p.next()
	if !p.peekKeyword("AS") {
		return item, p.errHere("expected AS in (aggregate AS ?name)")
	}
	p.next()
	name, err := p.nextVar()
	if err != nil {
		return item, err
	}
	if !p.peekTok(")") {
		return item, p.errHere("expected ')' to close the projection item")
	}
	p.next()
	item.Name = name
	item.Agg = agg
	return item, nil
}

// parseWhere reads the braced WHERE clause: either one group body or a
// chain of braced groups joined by UNION.
func (p *parser) parseWhere(prefixes map[string]string) ([]Group, error) {
	if !p.peekTok("{") {
		return nil, p.errHere("expected '{' to open the WHERE clause")
	}
	p.next()

	if p.peekTok("{") {
		// UNION form: every branch is a braced group, and the branches
		// are the entire clause.
		var groups []Group
		for {
			g, err := p.parseBracedGroup(prefixes)
			if err != nil {
				return nil, err
			}
			groups = append(groups, g)
			if p.peekKeyword("UNION") {
				p.next()
				if !p.peekTok("{") {
					return nil, p.errHere("expected '{' after UNION")
				}
				continue
			}
			break
		}
		if !p.peekTok("}") {
			return nil, p.errHere("UNION branches must make up the whole WHERE clause")
		}
		p.next()
		return groups, nil
	}

	g, err := p.parseGroupBody(prefixes, false)
	if err != nil {
		return nil, err
	}
	p.next() // consume '}'
	return []Group{g}, nil
}

// parseBracedGroup parses '{' body '}' (one UNION branch).
func (p *parser) parseBracedGroup(prefixes map[string]string) (Group, error) {
	p.next() // consume '{'
	if p.peekKeyword("SELECT") {
		return Group{}, p.errHere("subqueries are not supported")
	}
	g, err := p.parseGroupBody(prefixes, false)
	if err != nil {
		return Group{}, err
	}
	p.next() // consume '}'
	return g, nil
}

// parseGroupBody parses triple patterns (with ';' predicate-object
// lists and ',' object lists), OPTIONAL blocks, BINDs, VALUES data,
// and FILTERs up to (not consuming) the closing '}'. inOptional
// restricts the body to patterns and FILTERs (no nesting).
func (p *parser) parseGroupBody(prefixes map[string]string, inOptional bool) (Group, error) {
	var g Group
	var bindPos []int // token index of each BIND, for rebind errors
	term := func(pos int) (string, error) { return p.patternTerm(pos, prefixes) }
	for !p.peekTok("}") {
		tok := p.peek()
		switch {
		case tok == "":
			return g, p.errHere("unexpected end of query inside group (missing '}')")
		case p.peekKeyword("FILTER"):
			p.next()
			e, err := p.parseConstraint(prefixes)
			if err != nil {
				return g, err
			}
			g.Filters = append(g.Filters, e)
			if p.peekTok(".") {
				p.next()
			}
			continue
		case p.peekKeyword("OPTIONAL"):
			if inOptional {
				return g, p.errHere("nested OPTIONAL is not supported")
			}
			p.next()
			if !p.peekTok("{") {
				return g, p.errHere("expected '{' after OPTIONAL")
			}
			p.next()
			og, err := p.parseGroupBody(prefixes, true)
			if err != nil {
				return g, err
			}
			if len(og.Patterns) == 0 {
				return g, p.errHere("OPTIONAL needs at least one triple pattern")
			}
			p.next() // consume '}'
			g.Optionals = append(g.Optionals, Optional{Patterns: og.Patterns, Filters: og.Filters})
			if p.peekTok(".") {
				p.next()
			}
			continue
		case p.peekKeyword("BIND"):
			if inOptional {
				return g, p.errHere("BIND inside OPTIONAL is not supported")
			}
			bindPos = append(bindPos, p.pos)
			p.next()
			b, err := p.parseBind(prefixes)
			if err != nil {
				return g, err
			}
			g.Binds = append(g.Binds, b)
			if p.peekTok(".") {
				p.next()
			}
			continue
		case p.peekKeyword("VALUES"):
			if inOptional {
				return g, p.errHere("VALUES inside OPTIONAL is not supported")
			}
			p.next()
			v, err := p.parseValues(prefixes)
			if err != nil {
				return g, err
			}
			g.Values = append(g.Values, v)
			if p.peekTok(".") {
				p.next()
			}
			continue
		case p.peekKeyword("MINUS"):
			return g, p.errHere("MINUS is not supported")
		case p.peekKeyword("GRAPH"):
			return g, p.errHere("GRAPH is not supported")
		case p.peekKeyword("SERVICE"):
			return g, p.errHere("SERVICE is not supported")
		case p.peekKeyword("UNION"):
			return g, p.errHere("UNION must combine braced groups ({ … } UNION { … })")
		case tok == "{":
			if p.peekAheadKeyword(1, "SELECT") {
				p.next()
				return g, p.errHere("subqueries are not supported")
			}
			return g, p.errHere("nested group patterns are not supported (UNION branches must be the entire WHERE clause)")
		}

		if err := p.parseTriplesBlock(&g.Patterns, term); err != nil {
			return g, err
		}
		if p.peekTok(".") {
			p.next()
		}
	}
	// SPARQL scoping: BIND may not rebind a variable the group already
	// binds. This dialect evaluates BINDs after the graph patterns, so
	// the target must be fresh with respect to the whole group —
	// pattern variables (required and OPTIONAL) and VALUES variables
	// alike, plus every earlier BIND (checked sequentially, hence the
	// bind-free Group handed to groupVars).
	bound := groupVars(Group{Patterns: g.Patterns, Optionals: g.Optionals, Values: g.Values})
	for i, b := range g.Binds {
		if bound[b.Var] {
			return g, p.errAtIndex(bindPos[i], "BIND target ?%s is already bound in the group", b.Var)
		}
		bound[b.Var] = true
	}
	return g, nil
}

// parseTriplesBlock parses one subject with its predicate-object list:
// `s p o`, extended by `, o2` (same subject and predicate) and
// `; p2 o3` (same subject). A trailing ';' before '.' or '}' is
// accepted, as in SPARQL. term reads the term at position pos
// (0=subject, 1=predicate, 2=object): patternTerm for a query, and for
// an update the reader that also enforces the operation's term rules, so
// an error points at the offending token.
func (p *parser) parseTriplesBlock(out *[][3]string, term func(pos int) (string, error)) error {
	subj, err := term(0)
	if err != nil {
		return err
	}
	for {
		pred, err := term(1)
		if err != nil {
			return err
		}
		if isPathToken(p.peek()) {
			return p.errHere("property paths are not supported")
		}
		for {
			obj, err := term(2)
			if err != nil {
				return err
			}
			*out = append(*out, [3]string{subj, pred, obj})
			if p.peekTok(",") {
				p.next()
				continue
			}
			break
		}
		if p.peekTok(";") {
			p.next()
			for p.peekTok(";") { // empty list entries are legal
				p.next()
			}
			if p.peekTok(".") || p.peekTok("}") {
				break // trailing ';'
			}
			continue
		}
		break
	}
	return nil
}

// patternTerm reads one triple-pattern term at position pos
// (0=subject, 1=predicate, 2=object) and resolves it to an N-Triples
// surface form.
func (p *parser) patternTerm(pos int, prefixes map[string]string) (string, error) {
	tok := p.peek()
	switch {
	case tok == "":
		return "", p.errHere("unexpected end of query in triple pattern")
	case isPathToken(tok):
		return "", p.errHere("property paths are not supported")
	case tok == ";" || tok == "," || tok == ".":
		return "", p.errHere("unexpected %q in triple pattern", tok)
	}
	p.next()
	term, err := resolveTerm(tok, pos == 1, prefixes)
	if err != nil {
		return "", p.errPrev("%s", err)
	}
	return term, nil
}

// parseBind reads `( expr AS ?var )`; the BIND keyword is consumed.
func (p *parser) parseBind(prefixes map[string]string) (Bind, error) {
	var b Bind
	if !p.peekTok("(") {
		return b, p.errHere("expected '(' after BIND")
	}
	p.next()
	e, err := p.parseExpr(prefixes)
	if err != nil {
		return b, err
	}
	if !p.peekKeyword("AS") {
		return b, p.errHere("expected AS in BIND(expr AS ?var)")
	}
	p.next()
	v, err := p.nextVar()
	if err != nil {
		return b, err
	}
	if !p.peekTok(")") {
		return b, p.errHere("expected ')' to close BIND")
	}
	p.next()
	b.Var = v
	b.Expr = e
	return b, nil
}

// parseValues reads an inline data block; the VALUES keyword is
// consumed. Single-variable form `?v { t … }` and full form
// `( ?v … ) { ( t … ) … }` are both accepted; UNDEF leaves a cell
// unbound.
func (p *parser) parseValues(prefixes map[string]string) (Values, error) {
	var v Values
	switch {
	case strings.HasPrefix(p.peek(), "?"):
		name, err := p.nextVar()
		if err != nil {
			return v, err
		}
		v.Vars = []string{name}
		if !p.peekTok("{") {
			return v, p.errHere("expected '{' to open the VALUES data block")
		}
		p.next()
		for !p.peekTok("}") {
			term, err := p.valuesTerm(prefixes)
			if err != nil {
				return v, err
			}
			v.Rows = append(v.Rows, []string{term})
		}
		p.next()
	case p.peekTok("("):
		p.next()
		for strings.HasPrefix(p.peek(), "?") {
			name, err := p.nextVar()
			if err != nil {
				return v, err
			}
			v.Vars = append(v.Vars, name)
		}
		if len(v.Vars) == 0 {
			return v, p.errHere("VALUES needs at least one variable")
		}
		if !p.peekTok(")") {
			return v, p.errHere("expected ')' to close the VALUES variable list")
		}
		p.next()
		if !p.peekTok("{") {
			return v, p.errHere("expected '{' to open the VALUES data block")
		}
		p.next()
		for !p.peekTok("}") {
			if !p.peekTok("(") {
				return v, p.errHere("expected '(' to open a VALUES row")
			}
			p.next()
			var row []string
			for !p.peekTok(")") {
				term, err := p.valuesTerm(prefixes)
				if err != nil {
					return v, err
				}
				row = append(row, term)
			}
			p.next()
			if len(row) != len(v.Vars) {
				return v, p.errPrev("VALUES row has %d terms, want %d", len(row), len(v.Vars))
			}
			v.Rows = append(v.Rows, row)
		}
		p.next()
	default:
		return v, p.errHere("VALUES needs a ?variable or a parenthesized variable list")
	}
	return v, nil
}

// valuesTerm reads one VALUES cell: a constant term or UNDEF ("").
func (p *parser) valuesTerm(prefixes map[string]string) (string, error) {
	tok := p.peek()
	switch {
	case tok == "":
		return "", p.errHere("unexpected end of query in VALUES data block")
	case strings.EqualFold(tok, "UNDEF"):
		p.next()
		return "", nil
	case strings.HasPrefix(tok, "?"):
		return "", p.errHere("variables cannot appear in VALUES data")
	}
	p.next()
	term, err := resolveTerm(tok, false, prefixes)
	if err != nil {
		return "", p.errPrev("%s", err)
	}
	return term, nil
}

// expandLiteralDatatype rewrites a prefixed datatype ("5"^^xsd:int)
// into the full-IRI surface form the store uses ("5"^^<...#int>); a
// literal with a full-IRI datatype, a language tag, or no suffix passes
// through unchanged. Without the expansion the prefixed form would
// silently match nothing (the dictionary only knows full IRIs).
func expandLiteralDatatype(tok string, prefixes map[string]string) (string, error) {
	quoted, suffix, _ := rdf.CutLiteral(tok)
	if !strings.HasPrefix(suffix, "^^") || strings.HasPrefix(suffix, "^^<") {
		return tok, nil
	}
	dt := suffix[2:]
	colon := strings.IndexByte(dt, ':')
	if colon < 0 {
		return "", fmt.Errorf("cannot parse literal datatype %q", dt)
	}
	ns, ok := prefixes[dt[:colon]]
	if !ok {
		return "", fmt.Errorf("undefined prefix %q in literal datatype", dt[:colon])
	}
	return quoted + "^^<" + ns + dt[colon+1:] + ">", nil
}

// isPathToken reports whether tok is a SPARQL property-path operator.
func isPathToken(tok string) bool {
	switch tok {
	case "/", "|", "^", "*", "+":
		return true
	}
	return false
}

// parseModifiers reads GROUP BY, ORDER BY, LIMIT, and OFFSET (LIMIT
// and OFFSET in either order, each at most once).
func (p *parser) parseModifiers(q *Query) error {
	if p.peekKeyword("GROUP") {
		p.next()
		if !p.peekKeyword("BY") {
			return p.errHere("expected BY after GROUP")
		}
		p.next()
		for strings.HasPrefix(p.peek(), "?") {
			v, err := p.nextVar()
			if err != nil {
				return err
			}
			q.GroupBy = append(q.GroupBy, v)
		}
		if len(q.GroupBy) == 0 {
			return p.errHere("GROUP BY needs at least one ?var key")
		}
	}
	if p.peekKeyword("HAVING") {
		return p.errHere("HAVING is not supported")
	}
	if p.peekKeyword("ORDER") {
		p.next()
		if !p.peekKeyword("BY") {
			return p.errHere("expected BY after ORDER")
		}
		p.next()
	orderKeys:
		for {
			switch {
			case p.peekKeyword("ASC"), p.peekKeyword("DESC"):
				desc := p.peekKeyword("DESC")
				p.next()
				if !p.peekTok("(") {
					return p.errHere("expected '(' after ASC/DESC")
				}
				p.next()
				v, err := p.nextVar()
				if err != nil {
					return err
				}
				if !p.peekTok(")") {
					return p.errHere("expected ')' to close ASC/DESC")
				}
				p.next()
				q.OrderBy = append(q.OrderBy, OrderKey{Var: v, Desc: desc})
			case strings.HasPrefix(p.peek(), "?"):
				v, err := p.nextVar()
				if err != nil {
					return err
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Var: v})
			default:
				if len(q.OrderBy) == 0 {
					return p.errHere("ORDER BY needs at least one ?var, ASC(?var), or DESC(?var) key")
				}
				break orderKeys
			}
		}
	}
	seenOffset := false
	for p.peekKeyword("LIMIT") || p.peekKeyword("OFFSET") {
		isLimit := p.peekKeyword("LIMIT")
		p.next()
		n, err := p.nextNonNegativeInt()
		if err != nil {
			if isLimit {
				return p.errHere("LIMIT needs a non-negative integer")
			}
			return p.errHere("OFFSET needs a non-negative integer")
		}
		if isLimit {
			if q.HasLimit {
				return p.errPrev("duplicate LIMIT")
			}
			q.Limit, q.HasLimit = n, true
		} else {
			if seenOffset {
				return p.errPrev("duplicate OFFSET")
			}
			q.Offset, seenOffset = n, true
		}
	}
	return nil
}

// resolveTerm converts one token into an N-Triples surface form. A
// bare number outside predicate position denotes the plain literal
// with that lexical form (the dialect's numeric widening makes it
// compare numerically in FILTERs).
func resolveTerm(tok string, predicatePos bool, prefixes map[string]string) (string, error) {
	switch {
	case tok == "a" && predicatePos:
		return "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>", nil
	case strings.HasPrefix(tok, "?"):
		if len(tok) == 1 {
			return "", fmt.Errorf("bare '?' is not a variable")
		}
		return tok, nil
	case strings.HasPrefix(tok, "<"):
		if !strings.HasSuffix(tok, ">") {
			return "", fmt.Errorf("unterminated IRI %q", tok)
		}
		return tok, nil
	case strings.HasPrefix(tok, `"`):
		return expandLiteralDatatype(tok, prefixes)
	case strings.HasPrefix(tok, "_:"):
		return tok, nil
	default:
		// The ParseFloat check after the lexical gate rejects
		// range-overflowing tokens (1e999) here exactly as the FILTER
		// operand parser does.
		if !predicatePos && numericLexical(tok) {
			if _, err := strconv.ParseFloat(tok, 64); err == nil {
				return `"` + tok + `"`, nil
			}
		}
		colon := strings.IndexByte(tok, ':')
		if colon < 0 {
			return "", fmt.Errorf("cannot parse term %q", tok)
		}
		ns, ok := prefixes[tok[:colon]]
		if !ok {
			return "", fmt.Errorf("undefined prefix %q", tok[:colon])
		}
		return "<" + ns + tok[colon+1:] + ">", nil
	}
}

// numericLexical reports whether tok spells a SPARQL numeric literal:
// an optional sign, digits with at most one decimal point (at least
// one digit total), and an optional exponent. Deliberately stricter
// than strconv.ParseFloat, which also accepts NaN, Inf, hex floats,
// and underscore-grouped digits — none of which should silently
// become an unmatchable literal instead of a parse error.
func numericLexical(tok string) bool {
	i := 0
	if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
		i++
	}
	digits, dot := 0, false
	for i < len(tok) {
		switch c := tok[i]; {
		case c >= '0' && c <= '9':
			digits++
		case c == '.' && !dot:
			dot = true
		default:
			goto exponent
		}
		i++
	}
exponent:
	if digits == 0 {
		return false
	}
	if i == len(tok) {
		return true
	}
	if tok[i] != 'e' && tok[i] != 'E' {
		return false
	}
	i++
	if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
		i++
	}
	if i == len(tok) {
		return false
	}
	for ; i < len(tok); i++ {
		if tok[i] < '0' || tok[i] > '9' {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------- parser

// token is one lexed token with its byte offset in the source.
type token struct {
	text string
	off  int
}

// parser is a token cursor over the positioned token stream.
type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos].text
}

func (p *parser) next() string {
	t := p.peek()
	if t != "" {
		p.pos++
	}
	return t
}

func (p *parser) peekTok(s string) bool { return p.peek() == s }

func (p *parser) peekKeyword(kw string) bool {
	return strings.EqualFold(p.peek(), kw)
}

// peekAheadKeyword looks n tokens past the cursor.
func (p *parser) peekAheadKeyword(n int, kw string) bool {
	if p.pos+n >= len(p.toks) {
		return false
	}
	return strings.EqualFold(p.toks[p.pos+n].text, kw)
}

func (p *parser) nextPrefixLabel() (string, bool) {
	t := p.next()
	if !strings.HasSuffix(t, ":") {
		return "", false
	}
	return strings.TrimSuffix(t, ":"), true
}

func (p *parser) nextIRI() (string, bool) {
	t := p.next()
	if strings.HasPrefix(t, "<") && strings.HasSuffix(t, ">") {
		return strings.TrimPrefix(strings.TrimSuffix(t, ">"), "<"), true
	}
	return "", false
}

func (p *parser) nextVar() (string, error) {
	t := p.peek()
	if !strings.HasPrefix(t, "?") || len(t) == 1 {
		return "", p.errHere("expected a ?variable")
	}
	p.next()
	return t[1:], nil
}

func (p *parser) nextNonNegativeInt() (int, error) {
	n, err := strconv.Atoi(p.peek())
	if err != nil || n < 0 {
		return 0, fmt.Errorf("not a non-negative integer")
	}
	p.next()
	return n, nil
}

// errHere builds a ParseError at the current token (or end of input).
func (p *parser) errHere(format string, args ...interface{}) error {
	return p.errAtIndex(p.pos, format, args...)
}

// errPrev builds a ParseError at the token just consumed.
func (p *parser) errPrev(format string, args ...interface{}) error {
	i := p.pos - 1
	if i < 0 {
		i = 0
	}
	return p.errAtIndex(i, format, args...)
}

func (p *parser) errAtIndex(i int, format string, args ...interface{}) error {
	e := &ParseError{Msg: fmt.Sprintf(format, args...)}
	var off int
	if i < len(p.toks) {
		e.Token = p.toks[i].text
		off = p.toks[i].off
	} else {
		off = len(p.src)
	}
	e.Line, e.Col = lineCol(p.src, off)
	return e
}

// lineCol converts a byte offset into a 1-based line and column.
func lineCol(src string, off int) (line, col int) {
	if off > len(src) {
		off = len(src)
	}
	line = 1 + strings.Count(src[:off], "\n")
	if i := strings.LastIndexByte(src[:off], '\n'); i >= 0 {
		col = off - i
	} else {
		col = off + 1
	}
	return line, col
}

// -------------------------------------------------------------- tokenizer

// tokenize splits query text into positioned tokens: punctuation and
// operators ({ } ( ) , ; . = != < <= > >= && || ! / | ^ * +), IRIs,
// literals (kept intact with tags/datatypes), and words. Comments (#)
// run to end of line. A '<' opens an IRI only when a '>' closes it
// before any whitespace; otherwise it lexes as a comparison operator,
// which is what FILTER expressions need.
func tokenize(text string) []token {
	var toks []token
	emit := func(s string, off int) { toks = append(toks, token{text: s, off: off}) }
	i := 0
	n := len(text)
	for i < n {
		c := text[i]
		switch {
		case c == '#':
			for i < n && text[i] != '\n' {
				i++
			}
		case unicode.IsSpace(rune(c)):
			i++
		case c == '{' || c == '}' || c == '(' || c == ')' || c == ',' || c == ';' ||
			c == '/' || c == '*' || c == '+' || c == '^' || c == '=':
			emit(string(c), i)
			i++
		case c == '.':
			emit(".", i)
			i++
		case c == '!':
			if i+1 < n && text[i+1] == '=' {
				emit("!=", i)
				i += 2
			} else {
				emit("!", i)
				i++
			}
		case c == '&':
			if i+1 < n && text[i+1] == '&' {
				emit("&&", i)
				i += 2
			} else {
				emit("&", i)
				i++
			}
		case c == '|':
			if i+1 < n && text[i+1] == '|' {
				emit("||", i)
				i += 2
			} else {
				emit("|", i)
				i++
			}
		case c == '>':
			if i+1 < n && text[i+1] == '=' {
				emit(">=", i)
				i += 2
			} else {
				emit(">", i)
				i++
			}
		case c == '<':
			// IRI iff a '>' appears before any whitespace; else operator.
			if j := iriEnd(text, i); j > 0 {
				emit(text[i:j], i)
				i = j
			} else if i+1 < n && text[i+1] == '=' {
				emit("<=", i)
				i += 2
			} else {
				emit("<", i)
				i++
			}
		case c == '"':
			j := i + 1
			for j < n {
				if text[j] == '\\' {
					j += 2
					continue
				}
				if text[j] == '"' {
					break
				}
				j++
			}
			if j >= n {
				emit(text[i:], i)
				return toks
			}
			j++ // past closing quote
			// Attach language tag or datatype.
			if j < n && text[j] == '@' {
				for j < n && !unicode.IsSpace(rune(text[j])) &&
					text[j] != '.' && text[j] != '}' && text[j] != ')' && text[j] != ',' {
					j++
				}
			} else if j+1 < n && text[j] == '^' && text[j+1] == '^' {
				j += 2
				if j < n && text[j] == '<' {
					if k := strings.IndexByte(text[j:], '>'); k >= 0 {
						j += k + 1
					}
				} else {
					// prefixed datatype: runs to the next breaker
					for j < n && !unicode.IsSpace(rune(text[j])) && !isBreaker(text[j]) {
						j++
					}
				}
			}
			emit(text[i:j], i)
			i = j
		default:
			j := i
			for j < n && !unicode.IsSpace(rune(text[j])) && !isBreaker(text[j]) {
				// A '.' ends a token unless it is inside a prefixed
				// local name or decimal followed by more name characters.
				if text[j] == '.' {
					if j+1 >= n || unicode.IsSpace(rune(text[j+1])) ||
						text[j+1] == '}' || text[j+1] == ')' {
						break
					}
				}
				j++
			}
			if j == i { // defensive: always make progress
				emit(string(text[i]), i)
				i++
				continue
			}
			emit(text[i:j], i)
			i = j
		}
	}
	return toks
}

// isBreaker reports whether c always terminates a word token.
func isBreaker(c byte) bool {
	switch c {
	case '{', '}', '(', ')', ',', ';', '#', '=', '!', '<', '>', '&', '|', '^', '/', '*', '+', '"':
		return true
	}
	return false
}

// iriEnd returns the index just past the closing '>' of an IRI starting
// at text[i] == '<', or 0 when no '>' occurs before whitespace (then
// '<' is an operator).
func iriEnd(text string, i int) int {
	for j := i + 1; j < len(text); j++ {
		c := text[j]
		if c == '>' {
			return j + 1
		}
		if unicode.IsSpace(rune(c)) {
			return 0
		}
	}
	return 0
}

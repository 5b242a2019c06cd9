package sparql

// FILTER expressions: the AST, the recursive-descent expression parser,
// and SPARQL-style evaluation over decoded term surface forms. The
// dialect implements the operators docs/SPARQL.md lists — comparisons,
// && / || / !, regex(), bound() — with SPARQL's three-valued error
// handling (an evaluation error makes the enclosing constraint false,
// but true || error is still true).

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"inferray/internal/rdf"
)

// Expr is a parsed FILTER constraint. Evaluate it with Eval.
type Expr interface {
	eval(lookup func(name string) (string, bool)) (value, error)
	// String renders the expression in query-ish syntax (for logs and
	// error messages; not guaranteed to re-parse).
	String() string
}

// Eval reports whether the constraint holds under the binding lookup
// (variable name without '?' → term surface form). Per SPARQL
// semantics, an evaluation error — type mismatch, unbound variable
// outside bound() — makes the constraint false.
func Eval(e Expr, lookup func(name string) (string, bool)) bool {
	v, err := e.eval(lookup)
	if err != nil {
		return false
	}
	b, err := v.effectiveBool()
	return err == nil && b
}

// ---------------------------------------------------------------- values

// value kinds.
const (
	kindBool    = 'b'
	kindNumeric = 'n'
	kindString  = 's' // plain or xsd:string literal without a usable numeric form
	kindLiteral = 'l' // other literal (language-tagged or exotically typed)
	kindIRI     = 'i'
	kindBlank   = 'k'
)

// value is one evaluated operand.
type value struct {
	kind byte
	term string  // surface form ("" for parser-built constants)
	lex  string  // lexical form (IRI text, literal value, blank label)
	num  float64 // valid when kind == kindNumeric
	b    bool    // valid when kind == kindBool
}

// errEval marks recoverable SPARQL evaluation errors.
type evalError struct{ msg string }

func (e *evalError) Error() string { return e.msg }

func errEval(format string, args ...interface{}) error {
	return &evalError{msg: fmt.Sprintf(format, args...)}
}

// numericDatatypes are the xsd types whose literals compare numerically.
var numericDatatypes = map[string]bool{
	"http://www.w3.org/2001/XMLSchema#integer":            true,
	"http://www.w3.org/2001/XMLSchema#decimal":            true,
	"http://www.w3.org/2001/XMLSchema#float":              true,
	"http://www.w3.org/2001/XMLSchema#double":             true,
	"http://www.w3.org/2001/XMLSchema#int":                true,
	"http://www.w3.org/2001/XMLSchema#long":               true,
	"http://www.w3.org/2001/XMLSchema#short":              true,
	"http://www.w3.org/2001/XMLSchema#byte":               true,
	"http://www.w3.org/2001/XMLSchema#nonNegativeInteger": true,
	"http://www.w3.org/2001/XMLSchema#positiveInteger":    true,
	"http://www.w3.org/2001/XMLSchema#unsignedInt":        true,
	"http://www.w3.org/2001/XMLSchema#unsignedLong":       true,
}

const xsdBoolean = "http://www.w3.org/2001/XMLSchema#boolean"

// termValue classifies a term surface form into a value. A plain or
// numerically-typed literal whose lexical form parses as a number is
// numeric (the dialect's pragmatic widening, see docs/SPARQL.md).
func termValue(term string) value {
	switch {
	case strings.HasPrefix(term, "<"):
		return value{kind: kindIRI, term: term, lex: strings.TrimSuffix(strings.TrimPrefix(term, "<"), ">")}
	case strings.HasPrefix(term, "_:"):
		return value{kind: kindBlank, term: term, lex: term[2:]}
	case strings.HasPrefix(term, `"`):
		lex, lang, dtype, ok := rdf.SplitLiteral(term)
		if !ok {
			return value{kind: kindLiteral, term: term, lex: term}
		}
		if dtype == xsdBoolean {
			return value{kind: kindBool, term: term, lex: lex, b: lex == "true" || lex == "1"}
		}
		if lang == "" && (dtype == "" || numericDatatypes[dtype]) {
			if f, err := strconv.ParseFloat(lex, 64); err == nil {
				return value{kind: kindNumeric, term: term, lex: lex, num: f}
			}
			if numericDatatypes[dtype] {
				return value{kind: kindLiteral, term: term, lex: lex}
			}
		}
		if lang == "" && dtype == "" {
			return value{kind: kindString, term: term, lex: lex}
		}
		return value{kind: kindLiteral, term: term, lex: lex}
	default:
		return value{kind: kindString, term: term, lex: term}
	}
}

// EvalTerm evaluates a BIND expression to a term surface form under
// the binding lookup. ok is false when evaluation errs (an unbound
// variable, a type mismatch) — per SPARQL, the BIND target is then
// left unbound rather than failing the solution.
func EvalTerm(e Expr, lookup func(name string) (string, bool)) (term string, ok bool) {
	v, err := e.eval(lookup)
	if err != nil {
		return "", false
	}
	return v.surfaceTerm()
}

// surfaceTerm renders an evaluated value as an N-Triples surface form.
// Values that came from a term keep it verbatim; parser-built constants
// are rendered as literals (booleans as xsd:boolean, numbers via
// NumericLiteral, strings as plain literals).
func (v value) surfaceTerm() (string, bool) {
	if v.term != "" {
		return v.term, true
	}
	switch v.kind {
	case kindBool:
		if v.b {
			return `"true"^^<` + xsdBoolean + `>`, true
		}
		return `"false"^^<` + xsdBoolean + `>`, true
	case kindNumeric:
		return NumericLiteral(v.num), true
	case kindString:
		return rdf.EscapeLiteral(v.lex), true
	}
	return "", false
}

// NumericTerm reports the numeric interpretation of a term surface
// form, when it has one (plain or numerically-typed literal whose
// lexical form parses as a number).
func NumericTerm(term string) (float64, bool) {
	v := termValue(term)
	return v.num, v.kind == kindNumeric
}

// effectiveBool is the SPARQL effective boolean value: booleans
// themselves, numerics ≠ 0, strings non-empty; anything else errors.
func (v value) effectiveBool() (bool, error) {
	switch v.kind {
	case kindBool:
		return v.b, nil
	case kindNumeric:
		return v.num != 0, nil
	case kindString:
		return v.lex != "", nil
	}
	return false, errEval("no effective boolean value for %s", v.describe())
}

func (v value) describe() string {
	if v.term != "" {
		return v.term
	}
	return v.lex
}

// CompareTerms imposes the ORDER BY total order on term surface forms:
// unbound ("") < blank nodes < IRIs < literals; blanks and IRIs sort by
// their text; two numeric literals sort by value; all other literal
// pairs sort by lexical form. Ties break on the full surface form so
// the order is total. Returns -1, 0, or 1.
func CompareTerms(a, b string) int {
	ra, rb := termRank(a), termRank(b)
	if ra != rb {
		return cmpInt(ra, rb)
	}
	if ra == 3 { // both literals
		va, vb := termValue(a), termValue(b)
		if va.kind == kindNumeric && vb.kind == kindNumeric {
			if va.num != vb.num {
				if va.num < vb.num {
					return -1
				}
				return 1
			}
			return cmpString(a, b)
		}
		if va.lex != vb.lex {
			return cmpString(va.lex, vb.lex)
		}
	}
	return cmpString(a, b)
}

// termRank buckets terms for CompareTerms.
func termRank(term string) int {
	switch {
	case term == "":
		return 0
	case strings.HasPrefix(term, "_:"):
		return 1
	case strings.HasPrefix(term, "<"):
		return 2
	default:
		return 3
	}
}

func cmpInt(a, b int) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

func cmpString(a, b string) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// ------------------------------------------------------------- AST nodes

// varExpr evaluates a variable binding.
type varExpr struct{ name string }

func (e *varExpr) eval(lookup func(string) (string, bool)) (value, error) {
	term, ok := lookup(e.name)
	if !ok {
		return value{}, errEval("variable ?%s is unbound", e.name)
	}
	return termValue(term), nil
}

func (e *varExpr) String() string { return "?" + e.name }

// constExpr is a literal, IRI, number, or boolean written in the query.
type constExpr struct{ v value }

func (e *constExpr) eval(func(string) (string, bool)) (value, error) { return e.v, nil }

func (e *constExpr) String() string { return e.v.describe() }

// notExpr is '!'.
type notExpr struct{ x Expr }

func (e *notExpr) eval(lookup func(string) (string, bool)) (value, error) {
	v, err := e.x.eval(lookup)
	if err != nil {
		return value{}, err
	}
	b, err := v.effectiveBool()
	if err != nil {
		return value{}, err
	}
	return value{kind: kindBool, b: !b}, nil
}

func (e *notExpr) String() string { return "!(" + e.x.String() + ")" }

// binBoolExpr is '&&' or '||' with SPARQL's three-valued error logic:
// true || error is true, false && error is false, everything else with
// an error is an error.
type binBoolExpr struct {
	or   bool
	l, r Expr
}

func (e *binBoolExpr) eval(lookup func(string) (string, bool)) (value, error) {
	lb, lerr := evalBool(e.l, lookup)
	rb, rerr := evalBool(e.r, lookup)
	if e.or {
		if lerr == nil && lb || rerr == nil && rb {
			return value{kind: kindBool, b: true}, nil
		}
		if lerr != nil {
			return value{}, lerr
		}
		if rerr != nil {
			return value{}, rerr
		}
		return value{kind: kindBool, b: false}, nil
	}
	if lerr == nil && !lb || rerr == nil && !rb {
		return value{kind: kindBool, b: false}, nil
	}
	if lerr != nil {
		return value{}, lerr
	}
	if rerr != nil {
		return value{}, rerr
	}
	return value{kind: kindBool, b: true}, nil
}

func evalBool(e Expr, lookup func(string) (string, bool)) (bool, error) {
	v, err := e.eval(lookup)
	if err != nil {
		return false, err
	}
	return v.effectiveBool()
}

func (e *binBoolExpr) String() string {
	op := " && "
	if e.or {
		op = " || "
	}
	return "(" + e.l.String() + op + e.r.String() + ")"
}

// cmpExpr is a comparison: = != < <= > >=.
type cmpExpr struct {
	op   string
	l, r Expr
}

func (e *cmpExpr) eval(lookup func(string) (string, bool)) (value, error) {
	lv, err := e.l.eval(lookup)
	if err != nil {
		return value{}, err
	}
	rv, err := e.r.eval(lookup)
	if err != nil {
		return value{}, err
	}
	var res bool
	switch e.op {
	case "=", "!=":
		eq, err := valuesEqual(lv, rv)
		if err != nil {
			return value{}, err
		}
		res = eq == (e.op == "=")
	default:
		c, err := valuesOrder(lv, rv)
		if err != nil {
			return value{}, err
		}
		switch e.op {
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
	}
	return value{kind: kindBool, b: res}, nil
}

func (e *cmpExpr) String() string {
	return e.l.String() + " " + e.op + " " + e.r.String()
}

// valuesEqual implements '=': numeric pairs by value, booleans by
// truth, same-kind terms by lexical/term identity; comparing an IRI to
// a literal is false (distinct terms), everything else errors.
func valuesEqual(a, b value) (bool, error) {
	if a.kind == kindNumeric && b.kind == kindNumeric {
		return a.num == b.num, nil
	}
	if a.kind == kindBool && b.kind == kindBool {
		return a.b == b.b, nil
	}
	// String-ish literals compare by lexical form when both are plain;
	// otherwise fall back to full term identity (a typed literal equals
	// only the identical term).
	if a.kind == kindString && b.kind == kindString {
		return a.lex == b.lex, nil
	}
	lit := func(k byte) bool {
		return k == kindString || k == kindLiteral || k == kindNumeric || k == kindBool
	}
	if a.kind == b.kind || lit(a.kind) && lit(b.kind) {
		if a.term != "" && b.term != "" {
			return a.term == b.term, nil
		}
		return a.lex == b.lex, nil
	}
	// IRI vs literal (and similar cross-kind): different terms.
	return false, nil
}

// valuesOrder implements the ordering comparisons: numeric pairs by
// value, string/literal pairs and IRI pairs by lexical form; ordering
// across kinds is an evaluation error (the filter rejects the row).
func valuesOrder(a, b value) (int, error) {
	if a.kind == kindNumeric && b.kind == kindNumeric {
		switch {
		case a.num < b.num:
			return -1, nil
		case a.num > b.num:
			return 1, nil
		}
		return 0, nil
	}
	if a.kind == kindBool && b.kind == kindBool {
		return cmpInt(boolInt(a.b), boolInt(b.b)), nil
	}
	strish := func(k byte) bool { return k == kindString || k == kindLiteral || k == kindNumeric }
	if strish(a.kind) && strish(b.kind) {
		return cmpString(a.lex, b.lex), nil
	}
	if a.kind == kindIRI && b.kind == kindIRI {
		return cmpString(a.lex, b.lex), nil
	}
	return 0, errEval("cannot order %s against %s", a.describe(), b.describe())
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// regexExpr is regex(?var, "pattern"[, "flags"]), compiled at parse time.
type regexExpr struct {
	arg     Expr
	pattern string
	re      *regexp.Regexp
}

func (e *regexExpr) eval(lookup func(string) (string, bool)) (value, error) {
	v, err := e.arg.eval(lookup)
	if err != nil {
		return value{}, err
	}
	switch v.kind {
	case kindString, kindLiteral, kindNumeric, kindBool, kindIRI:
		return value{kind: kindBool, b: e.re.MatchString(v.lex)}, nil
	}
	return value{}, errEval("regex needs a literal or IRI, got %s", v.describe())
}

func (e *regexExpr) String() string {
	return fmt.Sprintf("regex(%s, %q)", e.arg.String(), e.pattern)
}

// boundExpr is bound(?var).
type boundExpr struct{ name string }

func (e *boundExpr) eval(lookup func(string) (string, bool)) (value, error) {
	_, ok := lookup(e.name)
	return value{kind: kindBool, b: ok}, nil
}

func (e *boundExpr) String() string { return "bound(?" + e.name + ")" }

// ------------------------------------------------------ expression parser

// parseConstraint parses the FILTER argument: a parenthesized
// expression or a bare regex()/bound() call.
func (p *parser) parseConstraint(prefixes map[string]string) (Expr, error) {
	switch {
	case p.peekTok("("):
		p.next()
		e, err := p.parseExpr(prefixes)
		if err != nil {
			return nil, err
		}
		if !p.peekTok(")") {
			return nil, p.errHere("expected ')' to close FILTER")
		}
		p.next()
		return e, nil
	case p.peekKeyword("REGEX"), p.peekKeyword("BOUND"):
		return p.parseBuiltin(prefixes)
	}
	return nil, p.errHere("FILTER needs a parenthesized expression, regex(…), or bound(…)")
}

// parseExpr parses '||' alternatives (lowest precedence).
func (p *parser) parseExpr(prefixes map[string]string) (Expr, error) {
	l, err := p.parseAnd(prefixes)
	if err != nil {
		return nil, err
	}
	for p.peekTok("||") {
		p.next()
		r, err := p.parseAnd(prefixes)
		if err != nil {
			return nil, err
		}
		l = &binBoolExpr{or: true, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd(prefixes map[string]string) (Expr, error) {
	l, err := p.parseRelational(prefixes)
	if err != nil {
		return nil, err
	}
	for p.peekTok("&&") {
		p.next()
		r, err := p.parseRelational(prefixes)
		if err != nil {
			return nil, err
		}
		l = &binBoolExpr{l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseRelational(prefixes map[string]string) (Expr, error) {
	l, err := p.parseUnary(prefixes)
	if err != nil {
		return nil, err
	}
	switch op := p.peek(); op {
	case "=", "!=", "<", "<=", ">", ">=":
		p.next()
		r, err := p.parseUnary(prefixes)
		if err != nil {
			return nil, err
		}
		return &cmpExpr{op: op, l: l, r: r}, nil
	}
	return l, nil
}

func (p *parser) parseUnary(prefixes map[string]string) (Expr, error) {
	if p.peekTok("!") {
		p.next()
		x, err := p.parseUnary(prefixes)
		if err != nil {
			return nil, err
		}
		return &notExpr{x: x}, nil
	}
	return p.parsePrimary(prefixes)
}

func (p *parser) parsePrimary(prefixes map[string]string) (Expr, error) {
	tok := p.peek()
	switch {
	case tok == "":
		return nil, p.errHere("unexpected end of query in FILTER expression")
	case tok == "(":
		p.next()
		e, err := p.parseExpr(prefixes)
		if err != nil {
			return nil, err
		}
		if !p.peekTok(")") {
			return nil, p.errHere("expected ')'")
		}
		p.next()
		return e, nil
	case p.peekKeyword("REGEX"), p.peekKeyword("BOUND"):
		return p.parseBuiltin(prefixes)
	case p.peekKeyword("EXISTS"), p.peekKeyword("NOT"):
		return nil, p.errHere("EXISTS is not supported")
	case strings.HasPrefix(tok, "?"):
		if len(tok) == 1 {
			return nil, p.errHere("bare '?' is not a variable")
		}
		p.next()
		return &varExpr{name: tok[1:]}, nil
	case p.peekKeyword("TRUE"), p.peekKeyword("FALSE"):
		b := p.peekKeyword("TRUE")
		p.next()
		return &constExpr{v: value{kind: kindBool, b: b}}, nil
	case strings.HasPrefix(tok, `"`):
		p.next()
		expanded, err := expandLiteralDatatype(tok, prefixes)
		if err != nil {
			return nil, p.errPrev("%s", err)
		}
		return &constExpr{v: termValue(expanded)}, nil
	case strings.HasPrefix(tok, "<") && strings.HasSuffix(tok, ">") && len(tok) > 1:
		p.next()
		return &constExpr{v: termValue(tok)}, nil
	default:
		// Same strict numeric shape as triple-pattern terms: NaN, Inf,
		// hex floats, and underscore digits are operand errors, not
		// numeric constants.
		if numericLexical(tok) {
			if f, err := strconv.ParseFloat(tok, 64); err == nil {
				p.next()
				return &constExpr{v: value{kind: kindNumeric, lex: tok, num: f}}, nil
			}
		}
		if colon := strings.IndexByte(tok, ':'); colon >= 0 {
			if ns, ok := prefixes[tok[:colon]]; ok {
				p.next()
				return &constExpr{v: termValue("<" + ns + tok[colon+1:] + ">")}, nil
			}
		}
		// A known function name gives a better message than "cannot parse".
		for _, fn := range []string{"STR", "LANG", "DATATYPE", "ISIRI", "ISURI", "ISBLANK", "ISLITERAL", "ISNUMERIC", "LANGMATCHES", "SAMETERM", "CONTAINS", "STRSTARTS", "STRENDS"} {
			if strings.EqualFold(tok, fn) {
				return nil, p.errHere("FILTER function %s is not supported (supported: regex, bound)", strings.ToLower(fn))
			}
		}
		return nil, p.errHere("cannot parse FILTER operand")
	}
}

// parseBuiltin parses regex(?var, "pattern"[, "flags"]) and bound(?var).
func (p *parser) parseBuiltin(prefixes map[string]string) (Expr, error) {
	isRegex := p.peekKeyword("REGEX")
	p.next()
	if !p.peekTok("(") {
		return nil, p.errHere("expected '(' after builtin name")
	}
	p.next()
	if !isRegex {
		v, err := p.nextVar()
		if err != nil {
			return nil, err
		}
		if !p.peekTok(")") {
			return nil, p.errHere("expected ')' to close bound()")
		}
		p.next()
		return &boundExpr{name: v}, nil
	}
	arg, err := p.parsePrimary(prefixes)
	if err != nil {
		return nil, err
	}
	if !p.peekTok(",") {
		return nil, p.errHere("regex needs a pattern argument: regex(?var, \"pattern\")")
	}
	p.next()
	pat, err := p.nextStringLiteral()
	if err != nil {
		return nil, err
	}
	flags := ""
	if p.peekTok(",") {
		p.next()
		flags, err = p.nextStringLiteral()
		if err != nil {
			return nil, err
		}
	}
	if !p.peekTok(")") {
		return nil, p.errHere("expected ')' to close regex()")
	}
	p.next()

	goPat := pat
	if flags != "" {
		for _, f := range flags {
			switch f {
			case 'i', 's', 'm':
			default:
				return nil, p.errPrev("unsupported regex flag %q (supported: i, s, m)", string(f))
			}
		}
		goPat = "(?" + flags + ")" + pat
	}
	re, err := regexp.Compile(goPat)
	if err != nil {
		return nil, p.errPrev("invalid regex pattern: %v", err)
	}
	return &regexExpr{arg: arg, pattern: pat, re: re}, nil
}

// nextStringLiteral consumes a plain quoted string and returns its
// lexical form.
func (p *parser) nextStringLiteral() (string, error) {
	tok := p.peek()
	if !strings.HasPrefix(tok, `"`) {
		return "", p.errHere("expected a quoted string")
	}
	p.next()
	lex, lang, dtype, ok := rdf.SplitLiteral(tok)
	if lang != "" || dtype != "" {
		return "", p.errPrev("expected a plain quoted string (no language tag or datatype)")
	}
	if !ok {
		return "", p.errPrev("unterminated string literal")
	}
	return lex, nil
}

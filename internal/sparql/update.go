package sparql

import "strings"

// UpdateKind distinguishes the supported update operations.
type UpdateKind int

// The operations ParseUpdate accepts.
const (
	// UpdateInsertData asserts a block of ground triples.
	UpdateInsertData UpdateKind = iota
	// UpdateDeleteData retracts a block of ground triples.
	UpdateDeleteData
	// UpdateDeleteWhere retracts every triple matched by instantiating
	// the pattern block against the visible closure.
	UpdateDeleteWhere
)

// String names the operation the way it is spelled in the request.
func (k UpdateKind) String() string {
	switch k {
	case UpdateInsertData:
		return "INSERT DATA"
	case UpdateDeleteData:
		return "DELETE DATA"
	case UpdateDeleteWhere:
		return "DELETE WHERE"
	}
	return "unknown update operation"
}

// UpdateOp is one operation of an update request.
type UpdateOp struct {
	// Kind selects which of the three forms this operation is.
	Kind UpdateKind
	// Triples holds the ground triples of INSERT DATA and DELETE DATA
	// in N-Triples surface form.
	Triples [][3]string
	// Patterns holds DELETE WHERE's triple patterns, terms as in
	// Group.Patterns (variables spelled "?name").
	Patterns [][3]string
}

// Update is a parsed SPARQL UPDATE request: a non-empty ';'-separated
// sequence of operations, executed in order.
type Update struct {
	Ops []UpdateOp
}

// ParseUpdate parses a SPARQL UPDATE request. The supported forms are
// INSERT DATA, DELETE DATA, and DELETE WHERE; PREFIX declarations may
// precede any operation and stay in scope for the rest of the request.
// Per the SPARQL spec, variables are rejected in both DATA forms and
// blank nodes are rejected in DELETE DATA and DELETE WHERE (a blank
// node can never denote the triple to remove). Everything else —
// INSERT/DELETE templates with a WHERE clause, LOAD, CLEAR, graph
// management, WITH/USING — fails with a pointed message; the exact
// contract is documented in docs/SPARQL.md.
func ParseUpdate(text string) (*Update, error) {
	p := &parser{src: text, toks: tokenize(text)}
	u := &Update{}
	prefixes := map[string]string{}
	for {
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
		if p.peek() == "" {
			break
		}
		op, err := p.parseUpdateOp(prefixes)
		if err != nil {
			return nil, err
		}
		u.Ops = append(u.Ops, op)
		if p.peekTok(";") {
			p.next()
			continue
		}
		break
	}
	if p.peek() != "" {
		return nil, p.errHere("unsupported or trailing syntax (update operations are separated by ';')")
	}
	if len(u.Ops) == 0 {
		return nil, p.errHere("empty update request")
	}
	return u, nil
}

// parseUpdateOp parses one operation; the cursor sits on its first
// keyword.
func (p *parser) parseUpdateOp(prefixes map[string]string) (UpdateOp, error) {
	switch {
	case p.peekKeyword("INSERT"):
		p.next()
		if !p.peekKeyword("DATA") {
			return UpdateOp{}, p.errHere("only INSERT DATA is supported (INSERT { … } WHERE { … } templates are not)")
		}
		p.next()
		triples, err := p.parseDataBlock(prefixes, UpdateInsertData)
		if err != nil {
			return UpdateOp{}, err
		}
		return UpdateOp{Kind: UpdateInsertData, Triples: triples}, nil
	case p.peekKeyword("DELETE"):
		p.next()
		switch {
		case p.peekKeyword("DATA"):
			p.next()
			triples, err := p.parseDataBlock(prefixes, UpdateDeleteData)
			if err != nil {
				return UpdateOp{}, err
			}
			return UpdateOp{Kind: UpdateDeleteData, Triples: triples}, nil
		case p.peekKeyword("WHERE"):
			p.next()
			pats, err := p.parseDataBlock(prefixes, UpdateDeleteWhere)
			if err != nil {
				return UpdateOp{}, err
			}
			if len(pats) == 0 {
				return UpdateOp{}, p.errPrev("DELETE WHERE needs at least one triple pattern")
			}
			return UpdateOp{Kind: UpdateDeleteWhere, Patterns: pats}, nil
		default:
			return UpdateOp{}, p.errHere("only DELETE DATA and DELETE WHERE are supported (DELETE { … } WHERE { … } templates are not)")
		}
	case p.peekKeyword("LOAD"), p.peekKeyword("CLEAR"), p.peekKeyword("CREATE"),
		p.peekKeyword("DROP"), p.peekKeyword("COPY"), p.peekKeyword("MOVE"),
		p.peekKeyword("ADD"):
		return UpdateOp{}, p.errHere("graph management operations are not supported")
	case p.peekKeyword("WITH"), p.peekKeyword("USING"):
		return UpdateOp{}, p.errHere("WITH/USING graph selection is not supported (the store holds a single graph)")
	case p.peekKeyword("SELECT"), p.peekKeyword("ASK"),
		p.peekKeyword("CONSTRUCT"), p.peekKeyword("DESCRIBE"):
		return UpdateOp{}, p.errHere("queries are not update operations; send them to the query endpoint")
	default:
		return UpdateOp{}, p.errHere("expected an update operation (INSERT DATA, DELETE DATA, or DELETE WHERE)")
	}
}

// parseDataBlock reads the braced triple block of one operation,
// reusing the query grammar's predicate-object lists (';' and ',').
// Kind decides term legality: variables only in DELETE WHERE, blank
// nodes only in INSERT DATA.
func (p *parser) parseDataBlock(prefixes map[string]string, kind UpdateKind) ([][3]string, error) {
	if !p.peekTok("{") {
		return nil, p.errHere("expected '{' to open the %s block", kind)
	}
	p.next()
	term := func(pos int) (string, error) { return p.updateTerm(pos, prefixes, kind) }
	var out [][3]string
	for !p.peekTok("}") {
		switch {
		case p.peek() == "":
			return nil, p.errHere("unexpected end of update inside %s (missing '}')", kind)
		case p.peekKeyword("GRAPH"):
			return nil, p.errHere("GRAPH is not supported")
		case p.peekKeyword("FILTER"), p.peekKeyword("OPTIONAL"),
			p.peekKeyword("BIND"), p.peekKeyword("VALUES"),
			p.peekKeyword("UNION"), p.peekKeyword("MINUS"):
			return nil, p.errHere("%s holds only triples (%s is not allowed here)",
				kind, strings.ToUpper(p.peek()))
		}
		if err := p.parseTriplesBlock(&out, term); err != nil {
			return nil, err
		}
		if p.peekTok(".") {
			p.next()
		}
	}
	p.next()
	return out, nil
}

// updateTerm reads one term and enforces the operation's term rules.
func (p *parser) updateTerm(pos int, prefixes map[string]string, kind UpdateKind) (string, error) {
	term, err := p.patternTerm(pos, prefixes)
	if err != nil {
		return "", err
	}
	if strings.HasPrefix(term, "?") && kind != UpdateDeleteWhere {
		return "", p.errPrev("variables are not allowed in %s", kind)
	}
	if strings.HasPrefix(term, "_:") && kind != UpdateInsertData {
		return "", p.errPrev("blank nodes are not allowed in %s (a blank node never names an existing triple)", kind)
	}
	return term, nil
}

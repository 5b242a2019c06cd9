package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
)

// ParseError describes a syntax error in an N-Triples document.
type ParseError struct {
	Line int
	Msg  string
}

// Error renders the failure with its 1-based line number.
func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

const (
	// blockSize is how much of the source one parse unit covers: large
	// enough that a block repays a goroutine hand-over, small enough
	// that the block and the triples cut from it stay cache-resident for
	// whoever consumes the slab next.
	blockSize = 1 << 20
	// maxStatement caps the length of one statement (one line).
	maxStatement = 16 << 20
)

// ReadNTriples parses an N-Triples document, invoking fn for every
// triple in document order. One statement per line; blank lines and
// comment lines (# …) are skipped, and a comment may follow a statement
// on its line (`<a> <b> <c> . # note`), but a second statement after
// the dot is an error. It supports IRIs, blank nodes, and literals with
// escapes, language tags, and datatype IRIs. Terms are passed in
// surface form, exactly as the rest of the system stores them. Syntax
// errors — including a statement longer than 16 MB — are *ParseError
// values carrying the 1-based document line; every triple before the
// offending line is delivered, none after it.
//
// Ownership: the terms of a delivered triple are substrings of the
// block of input they were parsed from, so holding one term keeps its
// whole block (up to 1 MB) reachable. Anything long-lived must copy
// (strings.Clone); the dictionary does.
func ReadNTriples(r io.Reader, fn func(Triple) error) error {
	return ReadNTriplesSlabs(r, func(slab []Triple) error {
		for _, t := range slab {
			if err := fn(t); err != nil {
				return err
			}
		}
		return nil
	})
}

// ReadNTriplesSlabs is ReadNTriples for bulk consumers: the source is
// read in large blocks cut at line ends, every block is parsed into one
// slab, and fn receives the non-empty slabs in document order on the
// caller's goroutine. A document that fits one block is parsed inline;
// a longer one is parsed by up to GOMAXPROCS goroutines running ahead
// of the delivery. fn owns the slab it is handed (it is never reused);
// the terms inside follow ReadNTriples' ownership rule.
func ReadNTriplesSlabs(r io.Reader, fn func([]Triple) error) error {
	return readSlabs(r, blockSize, runtime.GOMAXPROCS(0), fn)
}

// readSlabs is ReadNTriplesSlabs with the block size and the worker
// bound as parameters, so tests can force block cuts anywhere.
func readSlabs(r io.Reader, block, workers int, fn func([]Triple) error) error {
	br := blockReader{r: r, max: block, line: 1}
	b, err := br.next()
	if err == nil && !br.eof && workers > 1 {
		return readParallel(br, b, workers, fn)
	}
	for ; err == nil; b, err = br.next() {
		if err = deliver(parseBlock(b), fn); err != nil {
			return err
		}
	}
	if err == io.EOF {
		return nil
	}
	return err
}

// parsed is one block's outcome: the triples before the first syntax
// error, and that error.
type parsed struct {
	slab []Triple
	err  error
}

func deliver(p parsed, fn func([]Triple) error) error {
	if len(p.slab) > 0 {
		if err := fn(p.slab); err != nil {
			return err
		}
	}
	return p.err
}

// readParallel runs the multi-block pipeline: one goroutine reads and
// cuts blocks (starting after first, which the caller already cut) and
// starts a parse goroutine per block, at most workers at a time; the
// caller's goroutine delivers the outcomes in document order. It
// returns once every goroutine it started has exited.
func readParallel(br blockReader, first block, workers int, fn func([]Triple) error) error {
	stop := make(chan struct{})
	sem := make(chan struct{}, workers)
	// Two undelivered blocks per worker keep the parsers busy while the
	// caller consumes a slab, and bound what a slow consumer holds.
	order := make(chan chan parsed, 2*workers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(order)
		b, err := first, error(nil)
		for ; err == nil; b, err = br.next() {
			out := make(chan parsed, 1)
			select {
			case sem <- struct{}{}:
			case <-stop:
				return
			}
			wg.Add(1)
			go func(b block) {
				defer wg.Done()
				out <- parseBlock(b)
				<-sem
			}(b)
			select {
			case order <- out:
			case <-stop:
				return
			}
		}
		if err != io.EOF {
			out := make(chan parsed, 1)
			out <- parsed{err: err}
			select {
			case order <- out:
			case <-stop:
			}
		}
	}()
	var err error
	for out := range order {
		if err = deliver(<-out, fn); err != nil {
			close(stop)
			break
		}
	}
	wg.Wait()
	return err
}

// block is a run of whole lines, immutable once cut.
type block struct {
	text  string
	line  int // 1-based document line of text[0]
	lines int // lines in text, the last possibly unterminated
}

// blockReader cuts an io.Reader into blocks of whole lines. The buffer
// is sized from the source when it offers Len() (a WAL record or a
// request body of a hundred bytes costs a hundred-byte buffer),
// otherwise it starts small and doubles while the source keeps filling
// it, up to max; past max it only grows while a single statement does
// not fit, up to maxStatement.
type blockReader struct {
	r    io.Reader
	max  int
	buf  []byte // buf[:n] is read but not yet cut: the head of the next block
	n    int
	line int // document line of buf[0]
	eof  bool
}

// next returns the next block, io.EOF after the last one, or the
// source's read error.
func (b *blockReader) next() (block, error) {
	for idle := 0; ; {
		for !b.eof && b.n < len(b.buf) {
			m, err := b.r.Read(b.buf[b.n:])
			b.n += m
			if err == io.EOF {
				b.eof = true
			} else if err != nil {
				return block{}, err
			} else if m == 0 {
				if idle++; idle >= 100 {
					return block{}, io.ErrNoProgress
				}
			}
		}
		cut := b.n
		if !b.eof {
			cut = 0
			if len(b.buf) >= b.max {
				cut = bytes.LastIndexByte(b.buf[:b.n], '\n') + 1
			}
			if cut == 0 {
				if len(b.buf) >= maxStatement {
					return block{}, &ParseError{Line: b.line, Msg: "statement exceeds 16 MB"}
				}
				b.grow()
				continue
			}
		}
		if cut == 0 {
			return block{}, io.EOF
		}
		blk := block{text: string(b.buf[:cut]), line: b.line}
		blk.lines = strings.Count(blk.text, "\n")
		b.line += blk.lines
		if blk.text[cut-1] != '\n' {
			blk.lines++
		}
		b.n = copy(b.buf, b.buf[cut:b.n])
		return blk, nil
	}
}

func (b *blockReader) grow() {
	size := 2 * len(b.buf)
	if b.buf == nil {
		size = 512
		if l, ok := b.r.(interface{ Len() int }); ok {
			// One spare byte: the read that finds it empty reports EOF, so
			// a document that fits is known to be a single block.
			size = l.Len() + 1
		}
	}
	switch {
	case len(b.buf) < b.max && size > b.max:
		size = b.max
	case size > maxStatement:
		size = maxStatement
	}
	buf := make([]byte, size)
	copy(buf, b.buf[:b.n])
	b.buf = buf
}

// parseBlock parses every statement of a block into a fresh slab.
func parseBlock(b block) parsed {
	slab := make([]Triple, 0, b.lines)
	text := b.text
	for line := b.line; text != ""; line++ {
		stmt := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			stmt, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		stmt = trimSpace(stmt)
		if stmt == "" || stmt[0] == '#' {
			continue
		}
		t, err := parseStatement(stmt)
		if err != nil {
			return parsed{slab, &ParseError{Line: line, Msg: err.Error()}}
		}
		slab = append(slab, t)
	}
	return parsed{slab, nil}
}

// ParseTripleLine parses one N-Triples statement (with or without the
// trailing dot, optionally followed by a comment).
func ParseTripleLine(line string) (Triple, error) {
	line = trimSpace(line)
	if line == "" {
		return Triple{}, fmt.Errorf("subject: unexpected end of statement")
	}
	return parseStatement(line)
}

// parseStatement parses one statement with no surrounding whitespace.
// The terms of the result are substrings of stmt.
func parseStatement(stmt string) (Triple, error) {
	var t Triple
	var i int
	var err error
	if t.S, i, err = nextTerm(stmt, 0); err != nil {
		return t, fmt.Errorf("subject: %w", err)
	}
	if t.P, i, err = nextTerm(stmt, i); err != nil {
		return t, fmt.Errorf("predicate: %w", err)
	}
	if t.O, i, err = nextTerm(stmt, i); err != nil {
		return t, fmt.Errorf("object: %w", err)
	}
	i = skipSpace(stmt, i)
	if rest := stmt[i:]; rest != "" {
		if rest[0] == '.' {
			i = skipSpace(stmt, i+1)
		}
		if i < len(stmt) && stmt[i] != '#' {
			return t, fmt.Errorf("trailing garbage %q", rest)
		}
	}
	if !IsIRI(t.P) {
		return t, fmt.Errorf("predicate %q is not an IRI", t.P)
	}
	if IsLiteral(t.S) {
		return t, fmt.Errorf("subject %q may not be a literal", t.S)
	}
	return t, nil
}

// nextTerm skips whitespace from s[i] and scans one term, returning it
// in surface form with the index just past it.
func nextTerm(s string, i int) (term string, end int, err error) {
	i = skipSpace(s, i)
	if i == len(s) {
		return "", i, fmt.Errorf("unexpected end of statement")
	}
	if end, err = scanTerm(s, i); err != nil {
		return "", i, err
	}
	return s[i:end], end, nil
}

// scanTerm returns the index just past the RDF term that starts at s[i].
func scanTerm(s string, i int) (int, error) {
	switch s[i] {
	case '<':
		end := strings.IndexByte(s[i:], '>')
		if end < 0 {
			return 0, fmt.Errorf("unterminated IRI")
		}
		return i + end + 1, nil
	case '_':
		if len(s)-i < 3 || s[i+1] != ':' {
			return 0, fmt.Errorf("malformed blank node")
		}
		return skipToBreak(s, i+2), nil
	case '"':
		// Find the closing quote, honouring backslash escapes.
		end := i + 1
		for {
			if end >= len(s) {
				return 0, fmt.Errorf("unterminated literal")
			}
			if s[end] == '\\' {
				end += 2
				continue
			}
			if s[end] == '"' {
				break
			}
			end++
		}
		end++
		// Optional language tag or datatype.
		if end < len(s) && s[end] == '@' {
			end = skipToBreak(s, end)
		} else if end+1 < len(s) && s[end] == '^' && s[end+1] == '^' {
			end += 2
			if end >= len(s) || s[end] != '<' {
				return 0, fmt.Errorf("malformed datatype IRI")
			}
			close := strings.IndexByte(s[end:], '>')
			if close < 0 {
				return 0, fmt.Errorf("unterminated datatype IRI")
			}
			end += close + 1
		}
		return end, nil
	default:
		return 0, fmt.Errorf("unexpected character %q", s[i])
	}
}

// isSpace reports the bytes allowed between terms; '\r' makes CRLF
// documents parse.
func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' }

func skipSpace(s string, i int) int {
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	return i
}

// skipToBreak returns the end of an unbracketed token (blank node
// label, language tag): the next space or tab.
func skipToBreak(s string, i int) int {
	for i < len(s) && s[i] != ' ' && s[i] != '\t' {
		i++
	}
	return i
}

func trimSpace(s string) string {
	s = s[skipSpace(s, 0):]
	for s != "" && isSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	return s
}

// WriteNTriples serializes triples to w in N-Triples syntax, one
// statement per line. Terms are written verbatim (they are already in
// surface form).
func WriteNTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range triples {
		if _, err := fmt.Fprintf(bw, "%s %s %s .\n", t.S, t.P, t.O); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CutLiteral cuts a literal surface form just past its closing quote:
// quoted is the lexical form as written (quotes and escapes included),
// suffix whatever follows it — "", "@lang" or "^^datatype". It is the
// one place that decides where a lexical form ends. ok is false, with
// the whole term as quoted, when term is not a literal or its quote
// never closes.
func CutLiteral(term string) (quoted, suffix string, ok bool) {
	if !IsLiteral(term) {
		return term, "", false
	}
	for i := 1; i < len(term); i++ {
		switch term[i] {
		case '\\':
			i++
		case '"':
			return term[:i+1], term[i+1:], true
		}
	}
	return term, "", false
}

// SplitLiteral takes a literal surface form apart: the lexical form
// with the N-Triples escape sequences resolved, the language tag as
// written, and the datatype IRI without its angle brackets ("" when
// absent). ok is false when CutLiteral's is.
func SplitLiteral(term string) (lex, lang, datatype string, ok bool) {
	quoted, suffix, ok := CutLiteral(term)
	if !ok {
		return "", "", "", false
	}
	switch {
	case strings.HasPrefix(suffix, "@"):
		lang = suffix[1:]
	case strings.HasPrefix(suffix, "^^<") && strings.HasSuffix(suffix, ">"):
		datatype = suffix[3 : len(suffix)-1]
	}
	lex = quoted[1 : len(quoted)-1]
	if !strings.Contains(lex, `\`) {
		return lex, lang, datatype, true
	}
	var b strings.Builder
	for i := 0; i < len(lex); i++ {
		c := lex[i]
		if c == '\\' { // never the last byte: it would have escaped the closing quote
			i++
			switch c = lex[i]; c {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			case 'r':
				c = '\r'
			}
		}
		b.WriteByte(c)
	}
	return b.String(), lang, datatype, true
}

// EscapeLiteral builds the surface form of a plain literal from a raw
// string value.
func EscapeLiteral(value string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

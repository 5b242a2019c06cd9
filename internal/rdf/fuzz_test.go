package rdf

import (
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
)

// FuzzReadNTriples: arbitrary text fed to the N-Triples parser must
// either stream well-formed triples or return a positioned parse error
// — never panic, never loop, never hand a malformed term downstream.
func FuzzReadNTriples(f *testing.F) {
	seeds := []string{
		"<a> <p> <b> .\n",
		"# comment\n\n<a> <p> \"lit\"@en .\n",
		`<a> <p> "esc\"aped\n" .` + "\n",
		`<a> <p> "typed"^^<http://www.w3.org/2001/XMLSchema#int> .` + "\n",
		"_:b0 <p> _:b1 .\n",
		"<a> <p> <b>", // no trailing dot
		"<a <p> <b> .\n",
		"\"literal-subject\" <p> <b> .\n",
		"<a> _:not-an-iri <b> .\n",
		"<a> <p> \"unterminated .\n",
		"<a> <p> \"x\"^^<unterminated .\n",
		"<a> <p> <b> . trailing\n",
		"<a> <b> <c> . # note\n",        // a comment may follow the statement
		"<a> <b> <c> . <d> <e> <f> .\n", // a second statement may not
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<20 {
			return
		}
		err := ReadNTriples(strings.NewReader(doc), func(tr Triple) error {
			// Delivered triples must satisfy the parser's own contract.
			if !IsIRI(tr.P) {
				t.Fatalf("non-IRI predicate delivered: %q", tr.P)
			}
			if IsLiteral(tr.S) {
				t.Fatalf("literal subject delivered: %q", tr.S)
			}
			if tr.S == "" || tr.O == "" {
				t.Fatal("empty term delivered")
			}
			return nil
		})
		_ = err
	})
}

// readLineAtATime is the reference FuzzReadNTriplesBlocks compares the
// block reader with: split on '\n', one ParseTripleLine per line, the
// 1-based line index as the error position.
func readLineAtATime(doc string) (triples []Triple, errLine int) {
	for i, line := range strings.Split(doc, "\n") {
		line = trimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		t, err := ParseTripleLine(line)
		if err != nil {
			return triples, i + 1
		}
		triples = append(triples, t)
	}
	return triples, 0
}

// oneByteReader hands out one byte per Read, so every buffer-growth
// and carry-over branch of the block reader runs.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.r.Read(p[:1])
}

// FuzzReadNTriplesBlocks: wherever the block cuts fall and however many
// goroutines parse, the block reader delivers the triple sequence and
// reports the error line a line-at-a-time reader does.
func FuzzReadNTriplesBlocks(f *testing.F) {
	seeds := []string{
		"<a> <p> <b> .\n<c> <p> <d> .\n<e> <p> <f> .\n",
		"<a> <p> <b> .\r\n<c> <p> <d> .\r\n", // CRLF
		"<a> <p> <b> .\n<c> <p> <d> .",       // no trailing newline
		"\n\n# comment\n<a> <p> <b> .\n   \n# another\n<c> <p> <d> . # trailing\n",
		`<a> <p> "has > and # and \" inside" .` + "\n" + `<c> <p> "x"^^<http://t#y> .` + "\n",
		"<a> <p> <b> .\n<a-very-long-subject-that-certainly-straddles-a-tiny-block> <p> <o> .\n<c> <p> <d> .\n",
		"<a> <p> <b> .\n<c> <p> <d> .\nbroken\n<e> <p> <f> .\n",
		"<a> <p> <b> .\n<c> <p> \"unterminated .\n",
	}
	for _, s := range seeds {
		for _, block := range []int{1, 7, 64} {
			f.Add(s, block)
		}
	}
	f.Fuzz(func(t *testing.T, doc string, block int) {
		if len(doc) > 1<<16 || block < 1 || block > 1<<12 {
			return
		}
		want, wantLine := readLineAtATime(doc)
		for _, workers := range []int{1, 3} {
			for _, src := range []io.Reader{strings.NewReader(doc), oneByteReader{strings.NewReader(doc)}} {
				var got []Triple
				err := readSlabs(src, block, workers, func(slab []Triple) error {
					got = append(got, slab...)
					return nil
				})
				gotLine := 0
				var pe *ParseError
				if errors.As(err, &pe) {
					gotLine = pe.Line
				} else if err != nil {
					t.Fatalf("block %d, %d workers: non-parse error %v", block, workers, err)
				}
				if gotLine != wantLine || !slices.Equal(got, want) {
					t.Fatalf("block %d, %d workers: %d triples, error line %d; line at a time: %d triples, error line %d",
						block, workers, len(got), gotLine, len(want), wantLine)
				}
			}
		}
	})
}

// FuzzUnescapeLiteral: the literal splitter must round trip what
// EscapeLiteral produces and reject everything else without panicking.
func FuzzUnescapeLiteral(f *testing.F) {
	f.Add(`"plain"`)
	f.Add(`"tab\there"`)
	f.Add(`"trailing backslash\"`)
	f.Add(`unquoted`)
	f.Add(`"`)
	f.Fuzz(func(t *testing.T, term string) {
		if len(term) > 1<<16 {
			return
		}
		if lex, _, _, ok := SplitLiteral(term); ok && term == EscapeLiteral(lex) {
			// Round-trippable literals must be stable.
			lex2, _, _, ok2 := SplitLiteral(EscapeLiteral(lex))
			if !ok2 || lex2 != lex {
				t.Fatalf("unstable literal round trip: %q", term)
			}
		}
	})
}

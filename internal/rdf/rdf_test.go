package rdf

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseTripleLineBasics(t *testing.T) {
	cases := []struct {
		in   string
		want Triple
	}{
		{"<a> <b> <c> .", Triple{"<a>", "<b>", "<c>"}},
		{"<a> <b> <c>", Triple{"<a>", "<b>", "<c>"}},
		{"_:b0 <p> _:b1 .", Triple{"_:b0", "<p>", "_:b1"}},
		{`<a> <p> "hello world" .`, Triple{"<a>", "<p>", `"hello world"`}},
		{`<a> <p> "esc \" quote" .`, Triple{"<a>", "<p>", `"esc \" quote"`}},
		{`<a> <p> "v"@en .`, Triple{"<a>", "<p>", `"v"@en`}},
		{`<a> <p> "5"^^<http://www.w3.org/2001/XMLSchema#int> .`,
			Triple{"<a>", "<p>", `"5"^^<http://www.w3.org/2001/XMLSchema#int>`}},
		{"  <a>\t<b>\t<c>  .  ", Triple{"<a>", "<b>", "<c>"}},
	}
	for _, c := range cases {
		got, err := ParseTripleLine(c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("%q: got %v want %v", c.in, got, c.want)
		}
	}
}

func TestParseTripleLineErrors(t *testing.T) {
	bad := []string{
		"",
		"<a> <b>",
		"<a> <b> <c> <d> .",
		"<a <b> <c> .",
		`"lit" <p> <o> .`, // literal subject
		"<a> _:b <c> .",   // non-IRI predicate
		`<a> <p> "unterminated .`,
		"<a> <p> .",
	}
	for _, in := range bad {
		if _, err := ParseTripleLine(in); err == nil {
			t.Errorf("%q: expected error", in)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	triples := []Triple{
		{"<http://a>", RDFType, "<http://B>"},
		{"_:x", "<http://p>", `"a literal with \n newline"`},
		{"<http://a>", "<http://p>", `"v"@fr`},
	}
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, triples); err != nil {
		t.Fatal(err)
	}
	var back []Triple
	err := ReadNTriples(&buf, func(tr Triple) error {
		back = append(back, tr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, triples) {
		t.Fatalf("round trip: got %v want %v", back, triples)
	}
}

func TestReadNTriplesSkipsCommentsAndBlanks(t *testing.T) {
	doc := "# comment\n\n<a> <b> <c> .\n   \n# another\n<d> <e> <f> .\n"
	var n int
	err := ReadNTriples(strings.NewReader(doc), func(Triple) error {
		n++
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestReadNTriplesReportsLine(t *testing.T) {
	doc := "<a> <b> <c> .\nbroken line\n"
	err := ReadNTriples(strings.NewReader(doc), func(Triple) error { return nil })
	pe, ok := err.(*ParseError)
	if !ok || pe.Line != 2 {
		t.Fatalf("want ParseError at line 2, got %v", err)
	}
}

func TestTermPredicates(t *testing.T) {
	if !IsIRI("<a>") || IsIRI("a") || IsIRI(`"a"`) {
		t.Error("IsIRI wrong")
	}
	if !IsLiteral(`"x"`) || IsLiteral("<x>") {
		t.Error("IsLiteral wrong")
	}
	if !IsBlank("_:b") || IsBlank("<b>") {
		t.Error("IsBlank wrong")
	}
}

func TestEscapeUnescapeLiteralQuick(t *testing.T) {
	f := func(raw string) bool {
		// Restrict to byte content the simple escaper handles (no
		// embedded NUL is fine, any byte works since escaping is per
		// byte).
		esc := EscapeLiteral(raw)
		back, _, _, ok := SplitLiteral(esc)
		return ok && back == raw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSplitLiteral: where the lexical form ends is decided in one place
// — an escaped quote does not end it, a quote inside the suffix never
// starts it — and the parts come back decoded.
func TestSplitLiteral(t *testing.T) {
	for _, c := range []struct {
		term, quoted, suffix, lex, lang, datatype string
		ok                                        bool
	}{
		{`"plain"`, `"plain"`, "", "plain", "", "", true},
		{`"chat"@fr-BE`, `"chat"`, "@fr-BE", "chat", "fr-BE", "", true},
		{`"5"^^<http://x/int>`, `"5"`, "^^<http://x/int>", "5", "", "http://x/int", true},
		{`"5"^^xsd:int`, `"5"`, "^^xsd:int", "5", "", "", true},
		{`"a\"@en\\"@de`, `"a\"@en\\"`, "@de", `a"@en\`, "de", "", true},
		{`"tab\there\n"`, `"tab\there\n"`, "", "tab\there\n", "", "", true},
		{`"open\"`, `"open\"`, "", "", "", "", false},
		{`"`, `"`, "", "", "", "", false},
		{`<iri>`, `<iri>`, "", "", "", "", false},
	} {
		quoted, suffix, ok := CutLiteral(c.term)
		if quoted != c.quoted || suffix != c.suffix || ok != c.ok {
			t.Errorf("CutLiteral(%s) = %s | %s | %v", c.term, quoted, suffix, ok)
		}
		lex, lang, datatype, ok := SplitLiteral(c.term)
		if lex != c.lex || lang != c.lang || datatype != c.datatype || ok != c.ok {
			t.Errorf("SplitLiteral(%s) = %q, %q, %q, %v", c.term, lex, lang, datatype, ok)
		}
	}
}

func TestEscapedLiteralParses(t *testing.T) {
	lit := EscapeLiteral("line1\nline2\t\"quoted\" \\slash")
	line := "<s> <p> " + lit + " ."
	tr, err := ParseTripleLine(line)
	if err != nil {
		t.Fatal(err)
	}
	back, _, _, ok := SplitLiteral(tr.O)
	if !ok || back != "line1\nline2\t\"quoted\" \\slash" {
		t.Fatalf("literal mangled: %q", back)
	}
}

func TestVocabularyListsAreIRIs(t *testing.T) {
	for _, term := range append(append([]string{}, VocabularyProperties...), VocabularyResources...) {
		if !IsIRI(term) {
			t.Errorf("vocabulary term %q is not an IRI", term)
		}
	}
	// No duplicates across the two lists.
	seen := map[string]bool{}
	for _, term := range append(append([]string{}, VocabularyProperties...), VocabularyResources...) {
		if seen[term] {
			t.Errorf("vocabulary term %q duplicated", term)
		}
		seen[term] = true
	}
}

func TestTrailingComment(t *testing.T) {
	got, err := ParseTripleLine("<a> <b> <c> . # note")
	if err != nil || got != (Triple{"<a>", "<b>", "<c>"}) {
		t.Fatalf("statement + comment: %v, %v", got, err)
	}
	if _, err := ParseTripleLine("<a> <b> <c> . <d> <e> <f> ."); err == nil {
		t.Fatal("a second statement glued after the dot must stay an error")
	}
	n := 0
	doc := "<a> <b> <c> . # note\n<d> <e> \"# not a comment\" .#tight\n"
	if err := ReadNTriples(strings.NewReader(doc), func(Triple) error { n++; return nil }); err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

// TestSmallDocumentAllocs pins the cost of the parses that run once per
// WAL record, replicated record and POST /triples: a one-line document
// from a source that reports its length takes the read buffer, the
// block string and the slab — no 64 KB scanner buffer.
func TestSmallDocumentAllocs(t *testing.T) {
	doc := []byte("<http://example.org/s> <http://example.org/p> <http://example.org/o> .\n")
	r := bytes.NewReader(doc)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(doc)
		if err := ReadNTriples(r, func(Triple) error { sink++; return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("%v allocations for a one-line document, want at most 3", allocs)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(doc)
			ReadNTriples(r, func(Triple) error { return nil })
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 1024 {
		t.Errorf("%d bytes allocated for a one-line document, want under 1 KB", got)
	}
}

// TestParallelBlocksKeepDocumentOrder cuts a document into many blocks
// parsed concurrently: triples arrive in document order, an error
// carries its document line, and nothing after it is delivered.
func TestParallelBlocksKeepDocumentOrder(t *testing.T) {
	var doc strings.Builder
	const lines = 5000
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&doc, "<s%d> <p> <o%d> .\n", i, i)
	}
	next := 0
	err := readSlabs(strings.NewReader(doc.String()), 512, 4, func(slab []Triple) error {
		for _, tr := range slab {
			if want := fmt.Sprintf("<s%d>", next); tr.S != want {
				return fmt.Errorf("got %s, want %s", tr.S, want)
			}
			next++
		}
		return nil
	})
	if err != nil || next != lines {
		t.Fatalf("delivered %d of %d, err %v", next, lines, err)
	}

	broken := strings.Replace(doc.String(), "<s3210> <p>", "<s3210> p", 1)
	next = 0
	err = readSlabs(strings.NewReader(broken), 512, 4, func(slab []Triple) error {
		next += len(slab)
		return nil
	})
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 3211 || next != 3210 {
		t.Fatalf("err %v after %d triples, want a ParseError at line 3211 after 3210", err, next)
	}

	// A consumer error stops the pipeline and comes back as is.
	stop := errors.New("enough")
	if err := readSlabs(strings.NewReader(doc.String()), 512, 4, func([]Triple) error { return stop }); err != stop {
		t.Fatalf("err = %v, want the consumer's", err)
	}
}

type failingReader struct {
	data string
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.data == "" {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

func TestReadErrorSurfaces(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		src := &failingReader{data: strings.Repeat("<a> <b> <c> .\n", 200), err: boom}
		err := readSlabs(src, 256, workers, func([]Triple) error { return nil })
		if !errors.Is(err, boom) {
			t.Errorf("%d workers: err = %v, want the source's error", workers, err)
		}
	}
}

// TestStatementLengthCap: a statement just under the 16 MB cap parses
// even though it straddles many block boundaries; one over it is a
// ParseError that still knows its line.
func TestStatementLengthCap(t *testing.T) {
	head := "<a> <b> <c> .\n# two lines before the long one\n"
	long := func(n int) string {
		return head + `<s> <p> "` + strings.Repeat("x", n) + `" .` + "\n<d> <e> <f> .\n"
	}
	var got []Triple
	err := ReadNTriples(strings.NewReader(long(maxStatement-64)), func(tr Triple) error {
		got = append(got, tr)
		return nil
	})
	if err != nil || len(got) != 3 || len(got[1].O) != maxStatement-64+2 || got[2].S != "<d>" {
		t.Fatalf("statement under the cap: %d triples, err %v", len(got), err)
	}
	n := 0
	err = ReadNTriples(strings.NewReader(long(maxStatement)), func(Triple) error { n++; return nil })
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 3 || n != 1 {
		t.Fatalf("statement over the cap: err %v after %d triples, want a ParseError at line 3 after 1", err, n)
	}
}

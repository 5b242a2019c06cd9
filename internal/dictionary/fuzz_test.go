package dictionary

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// FuzzDictionary runs fuzzer-written op scripts — encode on either side,
// promote, tombstone, lookup, decode, reserve, and a round trip through
// the image section — against a dictionary and a map oracle with the
// numbering rules of §5.1, and compares the two after every op: counts,
// every term's ID, every ID's term, the footprint's term totals, and
// every string Decode returned earlier.
func FuzzDictionary(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 64+rng.Intn(448))
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			script = script[:1024] // the full check after every op is O(terms)
		}
		runDictScript(t, script)
	})
}

// dictModel is the oracle: the map-and-slices dictionary the arrays
// replaced. A tombstone is the empty string; the script never registers
// an empty term.
type dictModel struct {
	ids   map[string]uint64
	props []string
	res   []string
}

func (m *dictModel) encode(term string, prop bool) uint64 {
	if id, ok := m.ids[term]; ok {
		return id
	}
	var id uint64
	if prop {
		id = PropBase - uint64(len(m.props))
		m.props = append(m.props, term)
	} else {
		id = PropBase + 1 + uint64(len(m.res))
		m.res = append(m.res, term)
	}
	m.ids[term] = id
	return id
}

func (m *dictModel) promote(term string) (id, oldID uint64, moved bool) {
	cur, ok := m.ids[term]
	if !ok {
		return m.encode(term, true), 0, false
	}
	if IsProperty(cur) {
		return cur, 0, false
	}
	m.res[cur-PropBase-1] = ""
	id = PropBase - uint64(len(m.props))
	m.props = append(m.props, term)
	m.ids[term] = id
	return id, cur, true
}

func (m *dictModel) decode(id uint64) (string, bool) {
	if IsProperty(id) {
		if i := PropBase - id; i < uint64(len(m.props)) {
			return m.props[i], true
		}
		return "", false
	}
	if i := id - PropBase - 1; i < uint64(len(m.res)) && m.res[i] != "" {
		return m.res[i], true
	}
	return "", false
}

// heldString is a string Decode returned, with the term it must still read.
type heldString struct{ got, want string }

func runDictScript(t *testing.T, script []byte) {
	d := New()
	m := &dictModel{ids: map[string]uint64{}}
	var pool []string
	var held []heldString
	fresh := 0
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	// term picks a term the script met before, or a fresh one: short,
	// medium, or long enough for a chunk of its own.
	term := func() string {
		b := next()
		if b < 128 && len(pool) > 0 {
			return pool[int(b)%len(pool)]
		}
		fresh++
		var s string
		switch b % 4 {
		case 0, 1:
			s = fmt.Sprintf("<t%d>", fresh)
		case 2:
			s = fmt.Sprintf("<%s/%d>", strings.Repeat("m", int(b)), fresh)
		default:
			s = fmt.Sprintf("<%s/%d>", strings.Repeat("o", ownChunk+int(b)), fresh)
		}
		pool = append(pool, s)
		return s
	}
	hold := func(id uint64) {
		if s, ok := d.Decode(id); ok {
			held = append(held, heldString{got: s, want: strings.Clone(s)})
		}
	}
	for step := 0; len(script) > 0; step++ {
		op := next() % 8
		switch op {
		case 0, 1:
			s := term()
			var got uint64
			if op == 0 {
				got = d.EncodeProperty(s)
			} else {
				got = d.EncodeResource(s)
			}
			if want := m.encode(s, op == 0); got != want {
				t.Fatalf("step %d: encode(%q, property=%t) = %d, want %d", step, s, op == 0, got, want)
			}
			hold(got)
		case 2:
			s := term()
			id, old, moved := d.PromoteToProperty(s)
			wid, wold, wmoved := m.promote(s)
			if id != wid || old != wold || moved != wmoved {
				t.Fatalf("step %d: promote(%q) = (%d, %d, %t), want (%d, %d, %t)", step, s, id, old, moved, wid, wold, wmoved)
			}
			hold(id)
		case 3:
			// An empty, non-decodable resource slot: the one
			// PromoteToProperty leaves behind, without a term to promote.
			d.res = append(d.res, 0)
			m.res = append(m.res, "")
		case 4:
			s := term()
			id, ok := d.Lookup(s)
			wid, wok := m.ids[s]
			if id != wid || ok != wok {
				t.Fatalf("step %d: Lookup(%q) = (%d, %t), want (%d, %t)", step, s, id, ok, wid, wok)
			}
		case 5:
			// Around both ends of both sides, and the zero ID.
			id := PropBase + 1 + uint64(len(m.res)) - uint64(next())
			if b := next(); b&1 == 0 {
				id = PropBase + 2 - uint64(len(m.props)) + uint64(b>>1)
			}
			if next() == 0 {
				id = 0
			}
			got, ok := d.Decode(id)
			want, wok := m.decode(id)
			if got != want || ok != wok {
				t.Fatalf("step %d: Decode(%d) = (%q, %t), want (%q, %t)", step, id, got, ok, want, wok)
			}
		case 6:
			d.Reserve(int(next()) * 8)
		case 7:
			d = sectionRoundTrip(t, d)
		}
		checkDict(t, step, d, m, held)
	}
}

// checkDict compares everything a dictionary answers with the oracle.
func checkDict(t *testing.T, step int, d *Dictionary, m *dictModel, held []heldString) {
	t.Helper()
	if d.NumProperties() != len(m.props) || d.NumResources() != len(m.res) {
		t.Fatalf("step %d: %d properties, %d resources; want %d, %d", step, d.NumProperties(), d.NumResources(), len(m.props), len(m.res))
	}
	bytes := 0
	for term, want := range m.ids {
		if id, ok := d.Lookup(term); !ok || id != want {
			t.Fatalf("step %d: Lookup(%q) = (%d, %t), want %d", step, term, id, ok, want)
		}
		bytes += len(term)
	}
	lo := PropID(len(m.props) - 1)
	_, hi := d.ResourceIDRange()
	for id := lo; id < hi; id++ {
		got, ok := d.Decode(id)
		want, wok := m.decode(id)
		if got != want || ok != wok {
			t.Fatalf("step %d: Decode(%d) = (%q, %t), want (%q, %t)", step, id, got, ok, want, wok)
		}
	}
	if fp := d.Footprint(); fp.Terms != len(m.ids) || fp.TermBytes != bytes {
		t.Fatalf("step %d: footprint counts %d terms, %d bytes; want %d, %d", step, fp.Terms, fp.TermBytes, len(m.ids), bytes)
	}
	for _, h := range held {
		if h.got != h.want {
			t.Fatalf("step %d: a decoded string changed from %q to %q", step, h.want, h.got)
		}
	}
}

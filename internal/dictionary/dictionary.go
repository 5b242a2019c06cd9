// Package dictionary implements Inferray's dense-numbering dictionary
// (§5.1 of the paper).
//
// Inference never creates new subjects, properties, or objects — only new
// combinations of existing ones — so the dictionary is append-only. To
// keep the integer values dense on both sides without a full pre-scan,
// the 64-bit numbering space is split at 2³²: properties are numbered
// downward from 2³² (first property = 2³², second = 2³²−1, …) and
// non-property resources upward from 2³²+1. Both sides stay dense, which
// keeps the entropy of property-table contents low — the fact the custom
// sorts in internal/sorting exploit.
package dictionary

import (
	"fmt"
	"strings"
)

// PropBase is the split point of the numbering space. The first property
// registered receives this ID, and IDs descend from there; the first
// resource receives PropBase+1, ascending.
const PropBase uint64 = 1 << 32

// Dictionary maps term surface forms to dense 64-bit IDs and back.
// The zero value is not ready to use; call New.
//
// The dictionary owns the bytes of every term it holds: the first
// registration copies the term into an append-only arena, so an entry
// never keeps the caller's string — typically a substring of a parser
// block or a request body — reachable.
type Dictionary struct {
	ids   map[string]uint64
	props []string // props[i] decodes ID PropBase-i
	res   []string // res[i] decodes ID PropBase+1+i

	// arena is the chunk new terms are copied into. Terms are substrings
	// of chunks; a full chunk is simply left to its terms.
	arena strings.Builder
}

// Arena chunks double from minChunk to maxChunk, so a dictionary of a
// few dozen terms costs a few KB and a large one allocates rarely.
const (
	minChunk = 4 << 10
	maxChunk = 256 << 10
)

// own returns a copy of term that lives in the arena.
func (d *Dictionary) own(term string) string {
	if d.arena.Cap()-d.arena.Len() < len(term) {
		size := min(max(2*d.arena.Cap(), minChunk), maxChunk)
		d.arena = strings.Builder{}
		d.arena.Grow(max(size, len(term)))
	}
	// Writes within capacity never move the buffer, so substrings of
	// String() taken earlier stay valid.
	start := d.arena.Len()
	d.arena.WriteString(term)
	return d.arena.String()[start:]
}

// Reserve announces that up to n further terms are about to be
// registered. A bulk load calls it once so the term index is sized up
// front instead of rehashing its way up; a request that would not at
// least double the index is left to ordinary growth, which keeps
// single-triple updates on a large dictionary O(1).
func (d *Dictionary) Reserve(n int) {
	if n <= len(d.ids) {
		return
	}
	ids := make(map[string]uint64, len(d.ids)+n)
	for term, id := range d.ids {
		ids[term] = id
	}
	d.ids = ids
}

// New returns an empty dictionary.
func New() *Dictionary {
	return &Dictionary{ids: make(map[string]uint64)}
}

// NewWithVocabulary returns a dictionary with the given property and
// resource terms pre-registered, in order. Pre-registration pins the
// vocabulary to known dense indexes so the rule engine can address its
// property tables in O(1).
func NewWithVocabulary(properties, resources []string) *Dictionary {
	d := New()
	for _, p := range properties {
		d.EncodeProperty(p)
	}
	for _, r := range resources {
		d.EncodeResource(r)
	}
	return d
}

// IsProperty reports whether id lies on the property side of the split
// numbering space.
func IsProperty(id uint64) bool { return id <= PropBase && id > 0 }

// PropIndex converts a property ID to its dense 0-based index.
func PropIndex(id uint64) int { return int(PropBase - id) }

// PropID converts a dense property index back to the property ID.
func PropID(index int) uint64 { return PropBase - uint64(index) }

// EncodeProperty returns the ID for a term used in predicate position,
// registering it on the property side if unseen. If the term was
// previously registered as a resource, the existing resource ID is
// returned: callers that need strict property IDs must register
// predicates first (see the two-pass loader in the reasoner).
func (d *Dictionary) EncodeProperty(term string) uint64 {
	if id, ok := d.ids[term]; ok {
		return id
	}
	term = d.own(term)
	id := PropBase - uint64(len(d.props))
	d.props = append(d.props, term)
	d.ids[term] = id
	return id
}

// EncodeResource returns the ID for a term used in subject or object
// position, registering it on the resource side if unseen. A term already
// registered as a property keeps its property ID, so schema triples such
// as ⟨p, rdfs:domain, c⟩ refer to p by the same integer the property
// table of p is keyed with.
func (d *Dictionary) EncodeResource(term string) uint64 {
	if id, ok := d.ids[term]; ok {
		return id
	}
	term = d.own(term)
	id := PropBase + 1 + uint64(len(d.res))
	d.res = append(d.res, term)
	d.ids[term] = id
	return id
}

// PromoteToProperty returns a property-side ID for a term, whatever its
// current state: an unseen term is registered as a property; a term
// already on the property side keeps its ID. A term previously encoded
// as a resource is *moved* — it receives a fresh property ID, its
// resource slot is tombstoned (the ID range stays dense; the old ID no
// longer decodes), and (oldID, true) is returned so the caller can
// rewrite any stored triples that reference the old ID (see
// store.RewriteTerms). This is how owl:sameAs links and late schema
// triples can make a property out of a term that earlier batches only
// saw as a subject or object.
func (d *Dictionary) PromoteToProperty(term string) (id, oldID uint64, moved bool) {
	cur, ok := d.ids[term]
	if !ok {
		return d.EncodeProperty(term), 0, false
	}
	if IsProperty(cur) {
		return cur, 0, false
	}
	term = d.res[cur-PropBase-1] // the copy the dictionary already owns
	d.res[cur-PropBase-1] = ""   // tombstone; terms are never empty strings
	id = PropBase - uint64(len(d.props))
	d.props = append(d.props, term)
	d.ids[term] = id
	return id, cur, true
}

// ReserveTombstone appends an empty, non-decodable resource slot,
// keeping the resource numbering dense. Snapshot restore uses it to
// reproduce the slots PromoteToProperty vacated.
func (d *Dictionary) ReserveTombstone() {
	d.res = append(d.res, "")
}

// Lookup returns the ID of a term if it has been registered.
func (d *Dictionary) Lookup(term string) (uint64, bool) {
	id, ok := d.ids[term]
	return id, ok
}

// Decode returns the surface form for an ID. Resource IDs tombstoned by
// PromoteToProperty no longer decode.
func (d *Dictionary) Decode(id uint64) (string, bool) {
	if IsProperty(id) {
		i := PropIndex(id)
		if i < len(d.props) {
			return d.props[i], true
		}
		return "", false
	}
	i := id - PropBase - 1
	if i < uint64(len(d.res)) && d.res[i] != "" {
		return d.res[i], true
	}
	return "", false
}

// MustDecode is Decode for IDs known to be valid; it panics otherwise.
func (d *Dictionary) MustDecode(id uint64) string {
	s, ok := d.Decode(id)
	if !ok {
		panic(fmt.Sprintf("dictionary: unknown id %d", id))
	}
	return s
}

// NumProperties returns how many property terms are registered.
func (d *Dictionary) NumProperties() int { return len(d.props) }

// NumResources returns how many resource terms are registered.
func (d *Dictionary) NumResources() int { return len(d.res) }

// ResourceIDRange returns the half-open interval [lo, hi) of resource IDs
// in use. The interval is empty when no resources are registered.
func (d *Dictionary) ResourceIDRange() (lo, hi uint64) {
	return PropBase + 1, PropBase + 1 + uint64(len(d.res))
}

// Properties iterates all registered property terms with their IDs.
func (d *Dictionary) Properties(fn func(id uint64, term string) bool) {
	for i, term := range d.props {
		if !fn(PropID(i), term) {
			return
		}
	}
}

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
//
// An append-only, densely numbered dictionary is a set of arrays, and
// that is how it is laid out — nothing per term holds a Go pointer:
//
//   - Term bytes are copied into an arena of chunks that are appended to
//     and never moved. Short terms share chunks of chunkSize bytes; a
//     term of ownChunk bytes or more gets a chunk of its own, of exactly
//     its length, so a term of any length fits.
//   - Each ID has one 8-byte ref — chunk, offset, length — in one ref
//     array per side of the split. The zero ref is a tombstone: the slot
//     PromoteToProperty vacated.
//   - Lookup is an open-addressing index of 32-bit slots, each holding a
//     side bit and a position in that side's ref array, probed linearly
//     from the term's hash and kept at load ≤ 3/4.
//
// Terms are hashed with hash/maphash under one process-wide seed (Hash),
// not a seed per dictionary: a caller may hash a term before it knows
// which dictionary the term will meet. The reasoner interns a batch —
// hashes included — outside its lock, and an image install can replace
// the engine's dictionary before the batch is merged; a per-dictionary
// seed would then make the merge miss registered terms and mint
// duplicates.
//
// Decode returns a string over the arena bytes (unsafe.String), so it
// allocates nothing. Such a string stays valid for as long as anyone
// holds it: chunk bytes are written once, before any ref points at them,
// and never moved, reused or freed while referenced — a string keeps its
// chunk alive after the dictionary is gone. Lookup and Decode only read,
// so any number of goroutines may call them at once; every method that
// registers a term needs exclusive access (the engine's write lock
// provides both).
package dictionary

import (
	"fmt"
	"hash/maphash"
	"unsafe"
)

// PropBase is the split point of the numbering space. The first property
// registered receives this ID, and IDs descend from there; the first
// resource receives PropBase+1, ascending.
const PropBase uint64 = 1 << 32

// Dictionary maps term surface forms to dense 64-bit IDs and back.
// The zero value is not ready to use; call New.
//
// The dictionary owns the bytes of every term it holds: the first
// registration copies the term into the arena, so an entry never keeps
// the caller's string — typically a substring of a parser block or a
// request body — reachable.
type Dictionary struct {
	props []ref // props[i] locates the term of ID PropBase-i
	res   []ref // res[i] locates the term of ID PropBase+1+i; 0 = tombstone

	// index is the open-addressing term index: a slot is 0 when empty,
	// else propSide for the property side ORed with the position in that
	// side's ref array plus one. count is the number of occupied slots —
	// the registered terms. A full index grows by half.
	index []uint32
	count int

	// chunks is the arena. tail is the shared chunk new short terms are
	// appended to (-1 before the first); a full one is left to its terms.
	chunks [][]byte
	tail   int

	termBytes  int // bytes of the registered terms
	arenaBytes int // bytes allocated to chunks: termBytes plus unused tails
}

// Arena layout. A short term goes into the tail chunk when it fits and
// starts a new chunkSize chunk otherwise, wasting less than ownChunk
// bytes of the old one; a long term gets a chunk of its own and leaves
// the tail alone.
const (
	chunkSize = 4 << 10
	ownChunk  = chunkSize / 4
)

// ref locates a term in the arena: chunk number plus one in the top 32
// bits (so only a tombstone is zero), offset in the next 16, length in
// the low 16. A length of wholeChunk means the term is its whole chunk.
// Every chunk holds a term and each side holds fewer than 2³¹, so the
// chunk numbers fit.
type ref uint64

const (
	lenBits    = 16
	offBits    = 16
	wholeChunk = 1<<lenBits - 1
)

func makeRef(chunk, off, n int) ref {
	return ref(chunk+1)<<(offBits+lenBits) | ref(off)<<lenBits | ref(n)
}

func (r ref) chunk() int { return int(r>>(offBits+lenBits)) - 1 }
func (r ref) off() int   { return int(r>>lenBits) & (1<<offBits - 1) }
func (r ref) n() int     { return int(r) & wholeChunk }

// emptyRef locates the empty string, which occupies no arena bytes.
var emptyRef = makeRef(0, 0, 0)

// propSide marks an index slot that points into the property side.
const propSide = 1 << 31

// minSlots is the index size of an empty dictionary.
const minSlots = 64

// seed is the process-wide hash seed (see the package comment).
var seed = maphash.MakeSeed()

// Hash returns the hash the dictionary indexes term under. It is the
// same for every dictionary in the process, so a caller may compute it
// ahead of time — on another goroutine, before it knows the dictionary —
// and pass it to the *Hashed methods.
func Hash(term string) uint64 { return maphash.String(seed, term) }

// New returns an empty dictionary.
func New() *Dictionary {
	return &Dictionary{index: make([]uint32, minSlots), tail: -1}
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

// idOf converts an index slot to the ID it stands for.
func idOf(e uint32) uint64 {
	if e&propSide != 0 {
		return PropBase - uint64(e&^propSide-1)
	}
	return PropBase + uint64(e)
}

// refOf returns the ref an index slot points at.
func (d *Dictionary) refOf(e uint32) ref {
	if e&propSide != 0 {
		return d.props[e&^propSide-1]
	}
	return d.res[e-1]
}

// str returns the term a live ref locates, as a string over the arena.
func (d *Dictionary) str(r ref) string {
	n := r.n()
	if n == 0 {
		return ""
	}
	c := d.chunks[r.chunk()]
	if n == wholeChunk {
		return unsafe.String(unsafe.SliceData(c), len(c))
	}
	return unsafe.String(&c[r.off()], n)
}

// find probes the index for term under its hash h. e is the term's slot
// value, 0 when it is not registered; i is the slot holding it or, when
// it is not, the empty slot where the probe ended.
func (d *Dictionary) find(term string, h uint64) (i int, e uint32) {
	// The home slot scales the hash's high half to the index length, so
	// the index need not be a power of two and can grow by half.
	n := len(d.index)
	for i = int((h >> 32) * uint64(n) >> 32); ; {
		e = d.index[i]
		if e == 0 {
			return i, 0
		}
		// The length in the ref settles most mismatches without touching
		// the arena.
		if r := d.refOf(e); (r.n() == len(term) || r.n() == wholeChunk) && d.str(r) == term {
			return i, e
		}
		if i++; i == n {
			i = 0
		}
	}
}

// slotsFor returns the index size that holds n terms at load 3/4.
func slotsFor(n int) int {
	return max(minSlots, (4*n+2)/3)
}

// reindex rebuilds the index with the given number of slots from the ref
// arrays, properties first. It stops at the first term it meets twice —
// which only a restored section can hold — and returns it.
func (d *Dictionary) reindex(slots int) (dup string, found bool) {
	d.index, d.count = make([]uint32, slots), 0
	place := func(e uint32, r ref) bool {
		term := d.str(r)
		i, old := d.find(term, Hash(term))
		if old != 0 {
			dup, found = term, true
			return false
		}
		d.index[i] = e
		d.count++
		return true
	}
	for p, r := range d.props {
		if !place(propSide|uint32(p+1), r) {
			return
		}
	}
	for p, r := range d.res {
		if r != 0 && !place(uint32(p+1), r) {
			return
		}
	}
	return "", false
}

// Reserve announces that up to n further terms are about to be
// registered. A bulk load calls it once so the index is sized up front
// instead of rehashing its way up; a request that would not at least
// double the registered terms is left to ordinary growth, which keeps
// single-triple updates on a large dictionary O(1).
func (d *Dictionary) Reserve(n int) {
	if n <= d.count {
		return
	}
	if slots := slotsFor(d.count + n); slots > len(d.index) {
		d.reindex(slots)
	}
}

// own copies term into the arena and returns its ref.
func (d *Dictionary) own(term string) ref {
	n := len(term)
	switch {
	case n == 0:
		return emptyRef
	case n >= ownChunk:
		d.addChunk([]byte(term))
		return makeRef(len(d.chunks)-1, 0, wholeChunk)
	}
	if d.tail < 0 || chunkSize-len(d.chunks[d.tail]) < n {
		d.addChunk(make([]byte, 0, chunkSize))
		d.tail = len(d.chunks) - 1
	}
	// Appends within capacity never move the chunk, so strings over its
	// earlier bytes stay valid.
	c := d.chunks[d.tail]
	d.chunks[d.tail] = append(c, term...)
	return makeRef(d.tail, len(c), n)
}

func (d *Dictionary) addChunk(c []byte) {
	d.chunks = append(d.chunks, c)
	d.arenaBytes += cap(c)
}

// register adds an unregistered term to one side at index slot i (the
// empty slot find returned for it) and returns its ID.
func (d *Dictionary) register(i int, term string, h uint64, prop bool) uint64 {
	if 4*(d.count+1) > 3*len(d.index) {
		d.reindex(max(slotsFor(d.count+1), len(d.index)+len(d.index)/2))
		i, _ = d.find(term, h)
	}
	r := d.own(term)
	var e uint32
	if prop {
		d.props = append(d.props, r)
		e = propSide | position(len(d.props))
	} else {
		d.res = append(d.res, r)
		e = position(len(d.res))
	}
	d.index[i] = e
	d.count++
	d.termBytes += len(term)
	return idOf(e)
}

// position checks that a side's ref array still fits an index slot.
func position(n int) uint32 {
	if n >= propSide {
		panic("dictionary: more than 2³¹−1 terms on one side")
	}
	return uint32(n)
}

func (d *Dictionary) encode(term string, h uint64, prop bool) uint64 {
	i, e := d.find(term, h)
	if e != 0 {
		return idOf(e)
	}
	return d.register(i, term, h, prop)
}

// EncodeProperty returns the ID for a term used in predicate position,
// registering it on the property side if unseen. If the term was
// previously registered as a resource, the existing resource ID is
// returned: callers that need strict property IDs must register
// predicates first (see the two-pass loader in the reasoner).
func (d *Dictionary) EncodeProperty(term string) uint64 {
	return d.encode(term, Hash(term), true)
}

// EncodeResource returns the ID for a term used in subject or object
// position, registering it on the resource side if unseen. A term already
// registered as a property keeps its property ID, so schema triples such
// as ⟨p, rdfs:domain, c⟩ refer to p by the same integer the property
// table of p is keyed with.
func (d *Dictionary) EncodeResource(term string) uint64 {
	return d.encode(term, Hash(term), false)
}

// EncodeResourceHashed is EncodeResource for a caller that already holds
// h = Hash(term).
func (d *Dictionary) EncodeResourceHashed(term string, h uint64) uint64 {
	return d.encode(term, h, false)
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
	return d.PromoteToPropertyHashed(term, Hash(term))
}

// PromoteToPropertyHashed is PromoteToProperty for a caller that already
// holds h = Hash(term).
func (d *Dictionary) PromoteToPropertyHashed(term string, h uint64) (id, oldID uint64, moved bool) {
	i, e := d.find(term, h)
	switch {
	case e == 0:
		return d.register(i, term, h, true), 0, false
	case e&propSide != 0:
		return idOf(e), 0, false
	}
	// The bytes the dictionary already owns move with the ref.
	d.props = append(d.props, d.res[e-1])
	d.res[e-1] = 0
	d.index[i] = propSide | position(len(d.props))
	return idOf(d.index[i]), idOf(e), true
}

// Lookup returns the ID of a term if it has been registered.
func (d *Dictionary) Lookup(term string) (uint64, bool) {
	return d.LookupHashed(term, Hash(term))
}

// LookupHashed is Lookup for a caller that already holds h = Hash(term).
func (d *Dictionary) LookupHashed(term string, h uint64) (uint64, bool) {
	if _, e := d.find(term, h); e != 0 {
		return idOf(e), true
	}
	return 0, false
}

// Decode returns the surface form for an ID. Resource IDs tombstoned by
// PromoteToProperty no longer decode. The string is a view of the
// dictionary's arena; see the package comment for why it stays valid.
func (d *Dictionary) Decode(id uint64) (string, bool) {
	var r ref
	if IsProperty(id) {
		i := PropBase - id
		if i >= uint64(len(d.props)) {
			return "", false
		}
		r = d.props[i]
	} else {
		i := id - PropBase - 1
		if i >= uint64(len(d.res)) || d.res[i] == 0 {
			return "", false
		}
		r = d.res[i]
	}
	return d.str(r), true
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

// NumResources returns how many resource slots are in use, tombstoned
// ones included.
func (d *Dictionary) NumResources() int { return len(d.res) }

// ResourceIDRange returns the half-open interval [lo, hi) of resource IDs
// in use. The interval is empty when no resources are registered.
func (d *Dictionary) ResourceIDRange() (lo, hi uint64) {
	return PropBase + 1, PropBase + 1 + uint64(len(d.res))
}

// IDRange returns the n IDs in use on both sides, [lo, lo+n): the
// properties' below PropBase and the resources' above it are one
// contiguous span, so id-lo is a dense position for per-term arrays.
func (d *Dictionary) IDRange() (lo uint64, n int) {
	return PropBase + 1 - uint64(len(d.props)), len(d.props) + len(d.res)
}

// Footprint is where a dictionary's resident bytes are.
type Footprint struct {
	// Terms counts the registered terms; a tombstoned slot is not one.
	Terms int
	// TermBytes is the bytes of their surface forms.
	TermBytes int
	// ArenaBytes is what the arena chunks hold: TermBytes plus the unused
	// tails of its chunks.
	ArenaBytes int
	// RefBytes is the two ref arrays, 8 bytes per ID slot plus their
	// spare capacity.
	RefBytes int
	// IndexBytes is the lookup index, 4 bytes per slot.
	IndexBytes int
}

// Footprint reports the dictionary's resident bytes by part.
func (d *Dictionary) Footprint() Footprint {
	return Footprint{
		Terms:      d.count,
		TermBytes:  d.termBytes,
		ArenaBytes: d.arenaBytes,
		RefBytes:   8 * (cap(d.props) + cap(d.res)),
		IndexBytes: 4 * len(d.index),
	}
}

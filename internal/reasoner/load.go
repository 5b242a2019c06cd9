package reasoner

import (
	"runtime"
	"sync"
	"time"

	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/rules"
	"inferray/internal/store"
)

// This file is the ingest path: string triples → dictionary IDs →
// property tables. It runs in two steps. Interning is range-local and
// needs no engine state: a contiguous run of triples is reduced to its
// distinct terms, their dictionary hashes and index tuples (Range), so
// it can run on any goroutine, several ranges at once, before the
// caller holds the engine exclusively. LoadRanges then merges the ranges
// in order — the only step that touches the dictionary and the stores —
// with one pre-hashed dictionary probe per distinct term per range
// instead of one hashed probe per occurrence, and fills tables whose
// sizes it has counted.

// Range is the range-local intern of one contiguous run of input
// triples: every distinct term once, and the triples as indexes into
// that list. A Range is immutable once built. Its terms alias whatever
// the input triples aliased (a parser block, typically); the dictionary
// copies the ones it registers, so dropping the Range frees the input.
type Range struct {
	// terms lists the distinct terms in first-appearance order, scanning
	// each triple subject, predicate, object. That is the order the
	// dictionary would meet them, which is what lets LoadRanges
	// reproduce a term-at-a-time loader's numbering.
	terms []string
	// hashes holds dictionary.Hash of each term, computed here — on the
	// interning goroutine — so the merge probes without hashing. The
	// hash seed is process-wide, so the hashes hold whichever dictionary
	// the merge meets.
	hashes []uint64
	// roles lists the terms that occur in a property role — predicate
	// position, or a position a schema triple declares a property — in
	// order of first such occurrence.
	roles []uint32
	// sameAs holds the owl:sameAs statements as flat ⟨s,o⟩ term pairs.
	sameAs []uint32
	// tuples holds every triple as a flat ⟨s,p,o⟩ term tuple.
	tuples []uint32
}

// Len returns the number of triples in the range.
func (rg *Range) Len() int { return len(rg.tuples) / 3 }

// AppendTriples appends the range's triples, in input order, to dst.
func (rg *Range) AppendTriples(dst []rdf.Triple) []rdf.Triple {
	for i := 0; i < len(rg.tuples); i += 3 {
		dst = append(dst, rdf.Triple{
			S: rg.terms[rg.tuples[i]],
			P: rg.terms[rg.tuples[i+1]],
			O: rg.terms[rg.tuples[i+2]],
		})
	}
	return dst
}

// termClass is what a term means to the loader when it stands in
// predicate position (or, for propMarker, as the object of rdf:type).
type termClass uint8

const (
	plainTerm   termClass = iota
	propPair              // subject and object are properties
	propSubject           // the subject is a property
	sameAsPred            // owl:sameAs
	typePred              // rdf:type
	propMarker            // ⟨x rdf:type marker⟩ makes x a property
)

func classify(term string) termClass {
	switch term {
	case rdf.RDFSSubPropertyOf, rdf.OWLEquivalentProperty, rdf.OWLInverseOf:
		return propPair
	case rdf.RDFSDomain, rdf.RDFSRange:
		return propSubject
	case rdf.OWLSameAs:
		return sameAsPred
	case rdf.RDFType:
		return typePred
	case rdf.RDFProperty, rdf.RDFSContainerMembershipProperty,
		rdf.OWLFunctionalProperty, rdf.OWLInverseFunctionalProperty,
		rdf.OWLSymmetricProperty, rdf.OWLTransitiveProperty,
		rdf.OWLDatatypeProperty, rdf.OWLObjectProperty:
		return propMarker
	}
	return plainTerm
}

// interner builds one Range.
type interner struct {
	rg    *Range
	index map[string]uint32
	class []termClass // per term, classified once at first appearance
	role  []bool      // per term, already listed in rg.roles
}

func (b *interner) id(term string) uint32 {
	if i, ok := b.index[term]; ok {
		return i
	}
	i := uint32(len(b.rg.terms))
	b.index[term] = i
	b.rg.terms = append(b.rg.terms, term)
	b.rg.hashes = append(b.rg.hashes, dictionary.Hash(term))
	b.class = append(b.class, classify(term))
	b.role = append(b.role, false)
	return i
}

func (b *interner) markRole(i uint32) {
	if !b.role[i] {
		b.role[i] = true
		b.rg.roles = append(b.rg.roles, i)
	}
}

// intern fills rg from triples.
func (rg *Range) intern(triples []rdf.Triple) {
	b := interner{rg: rg, index: make(map[string]uint32, len(triples))}
	rg.tuples = make([]uint32, 0, 3*len(triples))
	var prev rdf.Triple
	var s, p uint32
	for _, t := range triples {
		// Documents group statements by subject and draw predicates from
		// a small vocabulary, so the previous triple often already has the
		// answer; a string compare is far cheaper than a map probe.
		if t.S != prev.S {
			s = b.id(t.S)
		}
		if t.P != prev.P {
			p = b.id(t.P)
		}
		o := b.id(t.O)
		prev = t
		rg.tuples = append(rg.tuples, s, p, o)
		b.markRole(p)
		switch b.class[p] {
		case propPair:
			b.markRole(s)
			b.markRole(o)
		case propSubject:
			b.markRole(s)
		case sameAsPred:
			rg.sameAs = append(rg.sameAs, s, o)
		case typePred:
			if b.class[o] == propMarker {
				b.markRole(s)
			}
		}
	}
}

// minRangeTriples is the smallest range worth a goroutine of its own.
const minRangeTriples = 4096

// Interner interns slabs of triples as they arrive — large ones on up
// to GOMAXPROCS goroutines when the engine runs parallel, small ones
// inline — and hands the ranges back in arrival order. It is how a
// block parser's output is interned while the next block is still being
// parsed, and how LoadTriples interns the pieces of one large batch.
type Interner struct {
	ranges []*Range
	sem    chan struct{} // nil: everything inline
	wg     sync.WaitGroup
}

// NewInterner returns an Interner that follows the engine's Parallel
// option.
func (e *Engine) NewInterner() *Interner {
	in := &Interner{}
	if n := runtime.GOMAXPROCS(0); e.opts.Parallel && n > 1 {
		in.sem = make(chan struct{}, n)
	}
	return in
}

// Add interns one slab as the next range. The slab must not change
// until Ranges returns. Add blocks while GOMAXPROCS slabs are already
// being interned.
func (in *Interner) Add(slab []rdf.Triple) {
	rg := &Range{}
	in.ranges = append(in.ranges, rg)
	if in.sem == nil || len(slab) < minRangeTriples {
		rg.intern(slab)
		return
	}
	in.sem <- struct{}{}
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		rg.intern(slab)
		<-in.sem
	}()
}

// Ranges waits for the interning in flight and returns every range
// added so far, in order.
func (in *Interner) Ranges() []*Range {
	in.wg.Wait()
	return in.ranges
}

// Intern interns one batch: as a single range when the batch is small
// or the engine is sequential, otherwise cut into up to GOMAXPROCS
// contiguous ranges interned concurrently.
func (e *Engine) Intern(triples []rdf.Triple) []*Range {
	n := 1
	if e.opts.Parallel {
		n = min(runtime.GOMAXPROCS(0), len(triples)/minRangeTriples)
	}
	return e.internN(triples, n)
}

// internN interns triples as n (at least one) near-equal contiguous
// ranges.
func (e *Engine) internN(triples []rdf.Triple, n int) []*Range {
	n = max(n, 1)
	in := e.NewInterner()
	for i := 0; i < n; i++ {
		in.Add(triples[i*len(triples)/n : (i+1)*len(triples)/n])
	}
	return in.Ranges()
}

// LoadTriples encodes and stores a batch of triples: Intern, then
// LoadRanges.
func (e *Engine) LoadTriples(triples []rdf.Triple) {
	if len(triples) == 0 {
		return
	}
	start := time.Now()
	ranges := e.Intern(triples)
	e.encodeTime += time.Since(start)
	e.LoadRanges(ranges)
}

// LoadRanges merges interned ranges — together one batch, in input
// order — into the dictionary and the stores. The caller must hold the
// engine exclusively.
//
// Every term ever used as a property — including terms first seen as
// subjects/objects of schema triples such as rdfs:subPropertyOf —
// receives a dense property-side ID (§5.1): all property-role terms of
// the batch are registered before any resource is. Terms that earlier
// batches encoded as resources are promoted (the stored triples are
// rewritten to the new ID), so incremental loads reach the same
// encoding a one-shot load would. Because ranges are contiguous and
// merged in order, the numbering is exactly what registering the batch
// term by term would produce, however the batch was cut.
//
// The batch is staged for the next Materialize, in Engine.staged: a new
// engine's is Main itself, any later one a store of its own.
func (e *Engine) LoadRanges(ranges []*Range) {
	start := time.Now()
	triples, terms, most, sameAs := 0, 0, 0, 0
	for _, rg := range ranges {
		triples += rg.Len()
		terms += len(rg.terms)
		most = max(most, len(rg.terms))
		sameAs += len(rg.sameAs)
	}
	if triples == 0 {
		return
	}
	d := e.Dict
	// The batch's distinct terms number at least the largest range's and
	// at most the sum, which counts a term once per range it occurs in.
	// Reserving the sum would leave a hash index twice the needed size
	// behind for good; half of it errs by one growth step either way.
	d.Reserve(max(most, terms/2))

	// asProperty gives term i of rg a property-side ID. A term previously
	// encoded as a resource (first seen as plain subject/object, only now
	// revealed to be a property — by a schema triple or an owl:sameAs link
	// in a later batch) is promoted; the stored occurrences of its old ID
	// are collected and rewritten in one batched pass below.
	var renames map[uint64]uint64
	asProperty := func(rg *Range, i uint32) {
		newID, oldID, moved := d.PromoteToPropertyHashed(rg.terms[i], rg.hashes[i])
		if moved {
			if renames == nil {
				renames = make(map[uint64]uint64)
			}
			renames[oldID] = newID
		}
	}
	for _, rg := range ranges {
		for _, i := range rg.roles {
			asProperty(rg, i)
		}
	}
	// owl:sameAs links between a property and a non-property term must
	// put both terms on the property side, or EQ-REP-P could not
	// replicate the table (a term without a property ID has no table).
	// Sameness is transitive, so iterate to a fixpoint; each pass either
	// moves at least one term to the property side or stops.
	isProp := func(rg *Range, i uint32) bool {
		id, ok := d.LookupHashed(rg.terms[i], rg.hashes[i])
		return ok && dictionary.IsProperty(id)
	}
	for changed := sameAs > 0; changed; {
		changed = false
		for _, rg := range ranges {
			for i := 0; i < len(rg.sameAs); i += 2 {
				a, b := rg.sameAs[i], rg.sameAs[i+1]
				switch aProp, bProp := isProp(rg, a), isProp(rg, b); {
				case aProp && !bProp:
					asProperty(rg, b)
					changed = true
				case bProp && !aProp:
					asProperty(rg, a)
					changed = true
				}
			}
		}
	}
	if len(renames) > 0 {
		e.Main.RewriteTerms(renames)
		if e.staged != nil && e.staged != e.Main {
			e.staged.RewriteTerms(renames)
		}
		// A promotion may have moved a vocabulary resource (markers like
		// owl:TransitiveProperty are resources); refresh the cached IDs.
		e.V = rules.ResolveVocab(d)
	}

	// Register the remaining terms as resources, range by range: one
	// pre-hashed dictionary probe per distinct term of a range yields its
	// local→global map. Property-role terms resolve to the IDs they
	// already hold.
	ids := make([]uint64, terms)
	remaps := make([][]uint64, len(ranges))
	for r, rg := range ranges {
		remaps[r], ids = ids[:len(rg.terms)], ids[len(rg.terms):]
		for i, term := range rg.terms {
			remaps[r][i] = d.EncodeResourceHashed(term, rg.hashes[i])
		}
	}

	if e.staged == nil {
		e.staged = store.New(d.NumProperties())
	}
	e.staged.Grow(d.NumProperties())
	e.Main.Grow(d.NumProperties())

	// Count the pairs each property receives, size its tables once, fill.
	counts := make([]int, d.NumProperties())
	for r, rg := range ranges {
		for i := 1; i < len(rg.tuples); i += 3 {
			counts[dictionary.PropIndex(remaps[r][rg.tuples[i]])]++
		}
	}
	into := make([]*store.Table, len(counts))
	for pidx, n := range counts {
		if n > 0 {
			into[pidx] = e.staged.Ensure(pidx)
			into[pidx].Reserve(n)
		}
	}
	for r, rg := range ranges {
		m := remaps[r]
		for i := 0; i < len(rg.tuples); i += 3 {
			s, p, o := m[rg.tuples[i]], m[rg.tuples[i+1]], m[rg.tuples[i+2]]
			into[dictionary.PropIndex(p)].Append(s, o)
		}
	}
	e.encodeTime += time.Since(start)
}

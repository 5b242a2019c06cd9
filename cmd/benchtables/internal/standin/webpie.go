package standin

import (
	"inferray/internal/closure"
	"inferray/internal/dictionary"
	"inferray/internal/rules"
)

// WebPIEEngine reproduces the architecture of WebPIE (Urbani et al.),
// the MapReduce forward-chaining reasoner of the paper's Table 2:
// the schema (TBox) is closed on the driver and replicated to every
// mapper, instance rules run as a parallel map over all facts, and every
// iteration pays a full shuffle-and-reduce duplicate-elimination job —
// the cost the paper highlights ("on LUBM … the system spends 15.7
// minutes out of 26 on cleaning duplicates"). It supports the RDFS
// fragments (default and full), matching WebPIE's coverage.
type WebPIEEngine struct {
	v    *rules.Vocab
	full bool
	cfg  JobConfig

	facts [][3]uint64
	set   map[Fact]struct{}

	// Accumulated job statistics.
	Jobs            int
	ShuffledRecords int
}

// NewWebPIEEngine builds an engine; full selects RDFS-full (adds the
// axiomatic single-antecedent rules) over RDFS-default.
func NewWebPIEEngine(v *rules.Vocab, full bool, cfg JobConfig) *WebPIEEngine {
	return &WebPIEEngine{v: v, full: full, cfg: cfg, set: make(map[Fact]struct{})}
}

// Add inserts an input fact.
func (e *WebPIEEngine) Add(f Fact) {
	if _, ok := e.set[f]; ok {
		return
	}
	e.set[f] = struct{}{}
	e.facts = append(e.facts, [3]uint64(f))
}

// Size returns the number of stored facts.
func (e *WebPIEEngine) Size() int { return len(e.facts) }

// All returns the stored facts.
func (e *WebPIEEngine) All() []Fact {
	out := make([]Fact, len(e.facts))
	for i, f := range e.facts {
		out[i] = Fact(f)
	}
	return out
}

// schemaMaps is the driver-side closed schema replicated to mappers.
type schemaMaps struct {
	sco map[uint64][]uint64 // c  -> strict superclasses (closed)
	spo map[uint64][]uint64 // p  -> strict superproperties (closed)
	dom map[uint64][]uint64 // p  -> extended domains (SCM-DOM1/2 applied)
	rng map[uint64][]uint64 // p  -> extended ranges (SCM-RNG1/2 applied)
}

// buildSchema closes the TBox on the driver: subClassOf/subPropertyOf
// transitive closure plus the schema-level domain/range rules. It also
// returns the schema triples themselves (the closure must appear in the
// output).
func (e *WebPIEEngine) buildSchema() (schemaMaps, [][3]uint64) {
	scoP := dictionary.PropID(e.v.SubClassOf)
	spoP := dictionary.PropID(e.v.SubPropertyOf)
	domP := dictionary.PropID(e.v.Domain)
	rngP := dictionary.PropID(e.v.Range)

	var scoPairs, spoPairs []uint64
	dom := map[uint64][]uint64{}
	rng := map[uint64][]uint64{}
	for _, f := range e.facts {
		switch f[1] {
		case scoP:
			scoPairs = append(scoPairs, f[0], f[2])
		case spoP:
			spoPairs = append(spoPairs, f[0], f[2])
		case domP:
			dom[f[0]] = append(dom[f[0]], f[2])
		case rngP:
			rng[f[0]] = append(rng[f[0]], f[2])
		}
	}
	toMap := func(pairs []uint64) map[uint64][]uint64 {
		m := map[uint64][]uint64{}
		for i := 0; i < len(pairs); i += 2 {
			m[pairs[i]] = append(m[pairs[i]], pairs[i+1])
		}
		return m
	}
	scoClosed := closure.Close(scoPairs)
	spoClosed := closure.Close(spoPairs)
	s := schemaMaps{sco: toMap(scoClosed), spo: toMap(spoClosed)}

	// Extended domains/ranges: SCM-DOM2 (inherit along spo*) then
	// SCM-DOM1 (lift along sco*), likewise for ranges.
	extend := func(base map[uint64][]uint64) map[uint64][]uint64 {
		out := map[uint64][]uint64{}
		add := func(p, c uint64) {
			out[p] = append(out[p], c)
			for _, c2 := range s.sco[c] {
				out[p] = append(out[p], c2)
			}
		}
		for p, cs := range base {
			for _, c := range cs {
				add(p, c)
			}
		}
		for p1, supers := range s.spo {
			for _, p2 := range supers {
				for _, c := range base[p2] {
					add(p1, c)
				}
			}
		}
		for p := range out {
			out[p] = dedupU64(out[p])
		}
		return out
	}
	s.dom = extend(dom)
	s.rng = extend(rng)

	// Schema triples the closure adds to the output.
	var extra [][3]uint64
	for i := 0; i < len(scoClosed); i += 2 {
		extra = append(extra, [3]uint64{scoClosed[i], scoP, scoClosed[i+1]})
	}
	for i := 0; i < len(spoClosed); i += 2 {
		extra = append(extra, [3]uint64{spoClosed[i], spoP, spoClosed[i+1]})
	}
	for p, cs := range s.dom {
		for _, c := range cs {
			extra = append(extra, [3]uint64{p, domP, c})
		}
	}
	for p, cs := range s.rng {
		for _, c := range cs {
			extra = append(extra, [3]uint64{p, rngP, c})
		}
	}
	return s, extra
}

func dedupU64(in []uint64) []uint64 {
	seen := make(map[uint64]struct{}, len(in))
	out := in[:0]
	for _, v := range in {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	return out
}

// Materialize runs the iterated rule + duplicate-elimination jobs until
// fixpoint, returning the number of derived facts and iterations.
func (e *WebPIEEngine) Materialize() (derived, iterations int) {
	typeP := dictionary.PropID(e.v.Type)
	scoP := dictionary.PropID(e.v.SubClassOf)
	spoP := dictionary.PropID(e.v.SubPropertyOf)
	memberP := dictionary.PropID(e.v.Member)
	v := e.v

	for {
		iterations++
		schema, schemaTriples := e.buildSchema()

		// ---- Rule job: map over every fact with the schema replicated.
		mapper := func(t [3]uint64, emit func(KV)) {
			out := func(s, p, o uint64) {
				f := [3]uint64{s, p, o}
				emit(KV{Key: factHash(f), Value: f})
			}
			s, p, o := t[0], t[1], t[2]
			if p == typeP {
				for _, c := range schema.sco[o] { // CAX-SCO
					out(s, typeP, c)
				}
			}
			for _, q := range schema.spo[p] { // PRP-SPO1
				out(s, q, o)
			}
			for _, c := range schema.dom[p] { // PRP-DOM
				out(s, typeP, c)
			}
			for _, c := range schema.rng[p] { // PRP-RNG
				out(o, typeP, c)
			}
			if e.full {
				out(s, typeP, v.Resource) // RDFS4a
				out(o, typeP, v.Resource) // RDFS4b
				if p == typeP {
					switch o {
					case v.Property:
						out(s, spoP, s) // RDFS6
					case v.Class:
						out(s, typeP, v.Resource) // RDFS8
						out(s, scoP, s)           // RDFS10
					case v.ContainerMembership:
						out(s, spoP, memberP) // RDFS12
					case v.Datatype:
						out(s, scoP, v.Literal) // RDFS13
					}
				}
			}
		}
		dedupReducer := func(key uint64, values [][3]uint64, emit func([3]uint64)) {
			seen := make(map[[3]uint64]struct{}, len(values))
			for _, t := range values {
				if _, ok := seen[t]; !ok {
					seen[t] = struct{}{}
					emit(t)
				}
			}
		}
		candidates, st1 := RunJob(e.facts, mapper, dedupReducer, e.cfg)
		e.Jobs++
		e.ShuffledRecords += st1.IntermediateRecords

		candidates = append(candidates, schemaTriples...)

		// ---- Duplicate-elimination job: union of existing facts and
		// candidates, reduced to distinct triples (WebPIE's dedup
		// barrier: everything is reshuffled, including old facts).
		dedupInput := make([][3]uint64, 0, len(e.facts)+len(candidates))
		dedupInput = append(dedupInput, e.facts...)
		dedupInput = append(dedupInput, candidates...)
		identity := func(t [3]uint64, emit func(KV)) {
			emit(KV{Key: factHash(t), Value: t})
		}
		union, st2 := RunJob(dedupInput, identity, dedupReducer, e.cfg)
		e.Jobs++
		e.ShuffledRecords += st2.IntermediateRecords

		// Driver bookkeeping: collect the genuinely new facts.
		added := 0
		for _, t := range union {
			f := Fact(t)
			if _, ok := e.set[f]; !ok {
				e.set[f] = struct{}{}
				e.facts = append(e.facts, t)
				added++
			}
		}
		derived += added
		if added == 0 {
			return derived, iterations
		}
	}
}

// factHash packs a triple into a shuffle key.
func factHash(t [3]uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range t {
		h ^= v
		h *= 1099511628211
	}
	return h
}

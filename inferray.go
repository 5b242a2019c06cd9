// Package inferray is a fast in-memory forward-chaining RDF reasoner, a
// Go reproduction of "Inferray: fast in-memory RDF inference" (Subercaze
// et al., PVLDB 9(6), 2016).
//
// Inferray materializes the closure of an RDF dataset under one of four
// rule fragments — ρdf, RDFS (default or full), and RDFS-Plus — using a
// vertically partitioned store of sorted 64-bit pair arrays, sort-merge
// join inference, dedicated Nuutila transitive closure, and low-entropy
// counting/radix sorts. The materialized closure is queryable through a
// planned, streaming SPARQL engine (Select, Ask; dialect reference in
// docs/SPARQL.md). See DESIGN.md for the architecture and
// EXPERIMENTS.md for the reproduced evaluation.
//
// Quickstart:
//
//	r := inferray.New(inferray.WithFragment(inferray.RDFSDefault))
//	r.Add("<human>", inferray.SubClassOf, "<mammal>")
//	r.Add("<mammal>", inferray.SubClassOf, "<animal>")
//	r.Add("<Bart>", inferray.Type, "<human>")
//	stats, _ := r.Materialize()
//	r.Holds("<Bart>", inferray.Type, "<animal>") // true
package inferray

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/reasoner"
	"inferray/internal/rules"
	"inferray/internal/snapshot"
	"inferray/internal/store"
	"inferray/internal/wal"
)

// Fragment selects a supported ruleset.
type Fragment = rules.Fragment

// The supported rule fragments (Table 5 of the paper).
const (
	RhoDF        = rules.RhoDF
	RDFSDefault  = rules.RDFSDefault
	RDFSFull     = rules.RDFSFull
	RDFSPlus     = rules.RDFSPlus
	RDFSPlusFull = rules.RDFSPlusFull
)

// ParseFragment resolves a fragment by name ("rhodf", "rdfs-default",
// "rdfs-full", "rdfs-plus", "rdfs-plus-full").
func ParseFragment(name string) (Fragment, error) { return rules.ParseFragment(name) }

// Commonly used vocabulary, re-exported for convenience.
const (
	Type                      = rdf.RDFType
	SubClassOf                = rdf.RDFSSubClassOf
	SubPropertyOf             = rdf.RDFSSubPropertyOf
	Domain                    = rdf.RDFSDomain
	Range                     = rdf.RDFSRange
	SameAs                    = rdf.OWLSameAs
	EquivalentClass           = rdf.OWLEquivalentClass
	EquivalentProperty        = rdf.OWLEquivalentProperty
	InverseOf                 = rdf.OWLInverseOf
	TransitiveProperty        = rdf.OWLTransitiveProperty
	FunctionalProperty        = rdf.OWLFunctionalProperty
	InverseFunctionalProperty = rdf.OWLInverseFunctionalProperty
	SymmetricProperty         = rdf.OWLSymmetricProperty
)

// Triple is an RDF statement in N-Triples surface form.
type Triple = rdf.Triple

// Stats reports what a materialization did.
type Stats = reasoner.Stats

// config is everything the option list can set: the engine options plus
// the durability layer's and the slow-query log's.
type config struct {
	engine    reasoner.Options
	durable   bool
	durDir    string
	durOpts   DurabilityOptions
	slowQuery time.Duration
	slowLog   *slog.Logger
}

// Option configures a Reasoner.
type Option func(*config)

// WithFragment selects the ruleset (default RDFSDefault).
func WithFragment(f Fragment) Option {
	return func(c *config) { c.engine.Fragment = f }
}

// WithParallelism enables or disables parallel rule firing, merging,
// normalizing and interning (default enabled). Parsing is not covered:
// LoadNTriples parses a long document on up to GOMAXPROCS goroutines
// either way.
func WithParallelism(on bool) Option {
	return func(c *config) { c.engine.Parallel = on }
}

// WithHierarchyEncoding enables or disables the LiteMat-style hierarchy
// interval encoding (default enabled): the transitive subClassOf/
// subPropertyOf closure and the rdf:type triples it entails are kept
// virtual — answered by an interval index instead of being
// materialized. Every visible result (Holds, Triples, WriteNTriples,
// Query, Select, Ask, Size) is identical with the option on or off;
// only the stored footprint and the materialization/checkpoint times
// change. Datasets that re-describe the RDFS/OWL meta-vocabulary
// itself fall back to full materialization automatically (see DESIGN.md
// §10), so the option is always safe to leave on.
func WithHierarchyEncoding(on bool) Option {
	return func(c *config) { c.engine.HierarchyEncoding = on }
}

// DurabilityOptions tunes the durability layer enabled by
// WithDurability. The zero value is a sensible default: group-commit
// fsync every 50ms, automatic checkpoint at 64 MiB or 4096 logged
// batches.
type DurabilityOptions struct {
	// Sync is the WAL fsync policy: "always" (every acknowledged batch
	// survives any crash), "interval" (group commit — at most one
	// SyncInterval of acknowledged batches is lost on power failure;
	// the default), or "none" (the OS decides; survives process
	// crashes, not power loss).
	Sync string
	// SyncInterval is the group-commit period for Sync "interval"
	// (default 50ms).
	SyncInterval time.Duration
	// CheckpointBytes triggers an automatic checkpoint once the WAL
	// exceeds this size (default 64 MiB; negative disables).
	CheckpointBytes int64
	// CheckpointRecords triggers an automatic checkpoint once the WAL
	// holds this many batches (default 4096; negative disables).
	CheckpointRecords int
}

// WithDurability persists the reasoner under dir: every batch a
// Materialize call absorbs is appended to a write-ahead log before it
// is applied, checkpoints write a snapshot image of the closure and
// truncate the log, and Open recovers the newest image plus the log
// tail — a crashed process restarted on the same dir converges to
// exactly the closure an uninterrupted run would hold. Use Open (not
// New) with this option: recovery does I/O and can fail.
func WithDurability(dir string, opts DurabilityOptions) Option {
	return func(c *config) {
		c.durable = true
		c.durDir = dir
		c.durOpts = opts
	}
}

// Reasoner is a long-lived materialization engine: load triples with
// Add / AddTriples / LoadNTriples, run Materialize, then query the
// closure with Holds / Triples / WriteNTriples. Materialize is
// re-entrant: triples added afterwards are staged as a delta, and the
// next Materialize extends the closure incrementally from only the new
// triples — the result is always identical to rematerializing the union
// from scratch.
//
// A Reasoner may be shared by any number of goroutines. The read path —
// Holds, Query, QueryFunc, QueryCount, Select, SelectWithVars, Ask,
// Exec, ExecFunc, Triples, AllTriples, Size, WriteNTriples — runs under a
// shared lock: reads proceed
// concurrently with each other and are linearized against Materialize,
// so every read observes a consistent closure (the state before or
// after a materialization, never a half-merged intermediate). Add,
// AddTriples, LoadNTriples, and LoadTurtle only stage triples into a
// side buffer guarded by its own mutex, so ingestion never blocks
// behind a running materialization or a long read. Callbacks passed to
// Triples, QueryFunc, or WriteNTriples's writer must not call back into
// the same Reasoner. See DESIGN.md "Concurrency model" for the full
// contract.
type Reasoner struct {
	mu     sync.RWMutex // engine state: closure store + dictionary
	engine *reasoner.Engine

	pendingMu    sync.Mutex   // staging buffer for the next Materialize
	pending      []pendingRun // in arrival order
	pendingParse time.Duration

	// dur is the durability manager (nil for in-memory reasoners). WAL
	// appends happen under mu's write lock and checkpoints under its
	// read lock — that ordering is what lets a checkpoint prune the log
	// (every logged record is already inside the new image).
	dur *wal.Manager

	// obs is the instrumentation state: metric registry, per-layer
	// instrument handles, slow-query log config. Always non-nil (New and
	// Open both build it), so callers never nil-check.
	obs *obs

	// gen is the store generation: a monotone counter that moves exactly
	// when the visible closure may have changed. It is derived from the
	// per-table version counters — after every mutation section (a
	// Materialize that absorbed something, a Retract) the store's
	// VersionSum is re-sampled under the write lock, and a changed sum
	// bumps gen. Readers load it lock-free; evaluations capture it under
	// the read lock, so a result is provably produced at the generation
	// it reports (the query cache's invalidation signal).
	gen    atomic.Uint64
	genSum uint64 // last sampled Main.VersionSum, guarded by mu (write)
}

// pendingRun is one contiguous run of staged input: loose triples from
// Add / AddTriples, which the next Materialize interns, or a range a
// bulk load interned while it parsed (triples is nil then; the range
// can reproduce them).
type pendingRun struct {
	triples []rdf.Triple
	rng     *reasoner.Range
}

// Generation returns the store generation: a monotone counter that
// increases whenever a mutation (Materialize with new triples, a SPARQL
// UPDATE, a retraction) may have changed the visible closure, and never
// otherwise. Two query evaluations at the same generation are
// guaranteed to see the identical closure, which is what lets query
// results be cached keyed on (query, generation) with no staleness:
// see QueryResult.Generation for the capture rule.
func (r *Reasoner) Generation() uint64 { return r.gen.Load() }

// bumpGenerationLocked re-samples the store's version-counter sum and
// advances the generation when it moved. Callers hold r.mu for writing
// (the sample and the staleness comparison must not race a merge).
func (r *Reasoner) bumpGenerationLocked() {
	if sum := r.engine.Main.VersionSum(); sum != r.genSum {
		r.genSum = sum
		r.gen.Add(1)
	}
}

// New creates an in-memory reasoner. It panics if the options include
// WithDurability — recovery does I/O and can fail, so durable
// reasoners are built with Open.
func New(opts ...Option) *Reasoner {
	c := newConfig(opts)
	if c.durable {
		panic("inferray: WithDurability requires inferray.Open")
	}
	return newReasoner(c)
}

// newReasoner builds the instrumentation state and the engine — in that
// order, since newObs hangs the reasoner-layer instrument set on the
// engine options.
func newReasoner(c *config) *Reasoner {
	o := newObs(c)
	return &Reasoner{engine: reasoner.New(c.engine), obs: o}
}

func newConfig(opts []Option) *config {
	c := &config{engine: reasoner.Options{
		Fragment:          rules.RDFSDefault,
		Parallel:          true,
		HierarchyEncoding: true,
	}}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Open creates a reasoner like New and, when WithDurability is among
// the options, recovers the data directory first: the newest valid
// snapshot image is loaded, the write-ahead log tail is replayed
// through the incremental materialization path (a corrupt tail record
// is detected by CRC and truncated, never applied), and the log is left
// open for appending. The recovered reasoner is materialized and ready
// to query. Call Close for a tidy shutdown; crash-stopping instead only
// costs the recovery replay on the next Open.
func Open(opts ...Option) (*Reasoner, error) {
	c := newConfig(opts)
	r := newReasoner(c)
	if !c.durable {
		return r, nil
	}
	policy, err := wal.ParseSyncPolicy(c.durOpts.Sync)
	if err != nil {
		return nil, err
	}
	walOpts := wal.Options{
		Sync:          policy,
		SyncInterval:  c.durOpts.SyncInterval,
		RotateBytes:   c.durOpts.CheckpointBytes,
		RotateRecords: c.durOpts.CheckpointRecords,
		Metrics:       r.obs.wm,
	}
	// Recovery uses the doors every later write uses — install for the
	// image, apply for each surviving record — so every process
	// replaying the same (image, log) prefix lands on the same closure
	// and generation. r.dur is still nil while the hooks run: replayed
	// records are not logged a second time.
	hooks := wal.Hooks{
		Restore: func(d *dictionary.Dictionary, st *store.Store, meta snapshot.Meta) error {
			return r.install("data dir", d, st, meta)
		},
		Apply: r.applyRecord,
	}
	m, err := wal.OpenManager(c.durDir, walOpts, hooks)
	if err != nil {
		return nil, err
	}
	r.dur = m
	return r, nil
}

// install replaces the reasoner's entire state with a restored image —
// the one way a snapshot gets in (Open's recovery, and restore for
// everything else). A closure is only a closure under its own ruleset,
// so a fragment mismatch is refused; source names the image in that
// error.
// The store generation resumes from the image's header:
// X-Inferray-Generation stays one monotone sequence across restarts and
// across the leader/follower boundary. Staged triples are discarded
// with the old state.
func (r *Reasoner) install(source string, d *dictionary.Dictionary, st *store.Store, meta snapshot.Meta) error {
	if meta.Fragment != r.engine.Fragment().String() {
		return fmt.Errorf("inferray: %s was materialized under fragment %q, but the reasoner is configured for %q",
			source, meta.Fragment, r.engine.Fragment())
	}
	r.pendingMu.Lock()
	r.pending, r.pendingParse = nil, 0
	r.pendingMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.engine.RestoreState(d, st, meta.HierarchyEncoded); err != nil {
		return err
	}
	r.gen.Store(meta.StoreGeneration)
	r.genSum = r.engine.Main.VersionSum()
	return nil
}

// Close flushes and closes the durability layer. It is a no-op for
// in-memory reasoners. The data directory is fully recoverable whether
// or not Close ran; Close only spares the next Open a tail replay of
// unsynced acknowledged batches under the "interval" policy.
func (r *Reasoner) Close() error {
	if r.dur == nil {
		return nil
	}
	return r.dur.Close()
}

// Durable reports whether the reasoner persists to a data directory.
func (r *Reasoner) Durable() bool { return r.dur != nil }

// Add buffers one triple. Terms are N-Triples surface forms: "<iri>",
// "\"literal\"", or "_:blank".
func (r *Reasoner) Add(s, p, o string) error {
	return r.AddTriples([]Triple{{S: s, P: p, O: o}})
}

// checkTriple enforces the term rules every write entry point shares:
// the predicate is an IRI and the subject is not a literal.
func checkTriple(t Triple) error {
	if !rdf.IsIRI(t.P) {
		return fmt.Errorf("inferray: predicate %q is not an IRI", t.P)
	}
	if rdf.IsLiteral(t.S) {
		return fmt.Errorf("inferray: subject %q may not be a literal", t.S)
	}
	return nil
}

// AddTriples buffers a batch of triples. Every predicate must be an IRI
// and no subject a literal; if a triple breaks that, nothing is buffered
// and the error names it. The slice is copied; the caller keeps it.
func (r *Reasoner) AddTriples(triples []Triple) error {
	for _, t := range triples {
		if err := checkTriple(t); err != nil {
			return err
		}
	}
	r.pendingMu.Lock()
	defer r.pendingMu.Unlock()
	if n := len(r.pending); n > 0 && r.pending[n-1].rng == nil {
		r.pending[n-1].triples = append(r.pending[n-1].triples, triples...)
		return nil
	}
	r.pending = append(r.pending, pendingRun{triples: append([]Triple(nil), triples...)})
	return nil
}

// LoadNTriples buffers every triple of an N-Triples document. The
// document is parsed in blocks — on up to GOMAXPROCS cores when it is
// long, whatever WithParallelism says — and interned outside every lock,
// on several cores when the reasoner runs parallel; nothing is staged
// unless the whole document parses.
func (r *Reasoner) LoadNTriples(src io.Reader) error {
	return r.load(func(emit func([]Triple) error) error {
		return rdf.ReadNTriplesSlabs(src, emit)
	})
}

// turtleSlab is how many triples LoadTurtle hands over at a time.
const turtleSlab = 8192

// LoadTurtle buffers every triple of a Turtle document (the practical
// subset documented at rdf.ReadTurtle: prefixes, base, 'a', predicate
// and object lists; no collections or anonymous blank nodes). Like
// LoadNTriples, nothing is staged unless the whole document parses.
func (r *Reasoner) LoadTurtle(src io.Reader) error {
	return r.load(func(emit func([]Triple) error) error {
		var slab []Triple
		err := rdf.ReadTurtle(src, func(t Triple) error {
			if slab == nil {
				slab = make([]Triple, 0, turtleSlab)
			}
			if slab = append(slab, t); len(slab) < cap(slab) {
				return nil
			}
			full := slab
			slab = nil
			return emit(full)
		})
		if err != nil || len(slab) == 0 {
			return err
		}
		return emit(slab)
	})
}

// load is the bulk hand-over shared by the document loaders: read
// delivers the document as slabs in order, each slab is interned (on
// other cores while read parses on, when the reasoner runs parallel)
// into a range, and the ranges are staged together once read succeeds.
func (r *Reasoner) load(read func(emit func([]Triple) error) error) error {
	start := time.Now()
	in := r.engine.NewInterner()
	err := read(func(slab []Triple) error {
		in.Add(slab)
		return nil
	})
	ranges := in.Ranges()
	if err != nil {
		return err
	}
	r.pendingMu.Lock()
	for _, rg := range ranges {
		r.pending = append(r.pending, pendingRun{rng: rg})
	}
	r.pendingParse += time.Since(start)
	r.pendingMu.Unlock()
	return nil
}

// Materialize computes the closure of everything added so far under the
// configured fragment: Algorithm 1 of the paper over the triples added
// since the last call, seeding the fixpoint with only those, guaranteed
// equivalent to a full rematerialization over the union. Only the first
// batch of a new reasoner leaves Stats.Incremental unset. Calling it
// with nothing new staged is a cheap no-op.
//
// On a durable reasoner the drained batch is appended to the write-
// ahead log before it is applied (honoring the configured sync policy),
// and a WAL write failure re-stages the batch and returns the error
// without touching the closure. Crossing a checkpoint threshold runs an
// automatic checkpoint after the merge; its failure does not fail the
// materialization (the WAL still holds everything) and is surfaced via
// DurabilityStats.
func (r *Reasoner) Materialize() (Stats, error) {
	return r.drain(false)
}

// drain is Materialize with the automatic threshold checkpoint
// optional: Checkpoint() drains pending through here with it off, since
// it is about to write an image anyway and auto-rotating first would
// write two back-to-back.
func (r *Reasoner) drain(noCheckpoint bool) (Stats, error) {
	r.pendingMu.Lock()
	runs, parseTime := r.pending, r.pendingParse
	r.pending, r.pendingParse = nil, 0
	r.pendingMu.Unlock()

	// Interning the loose runs needs no engine state: no lock held.
	start := time.Now()
	var ranges []*reasoner.Range
	for _, run := range runs {
		if run.rng == nil {
			ranges = append(ranges, r.engine.Intern(run.triples)...)
		} else {
			ranges = append(ranges, run.rng)
		}
	}
	var internTime time.Duration
	if len(runs) > 0 {
		internTime = time.Since(start)
	}
	st, _, err := r.apply(mutation{
		kind: wal.OpAdd, ranges: ranges,
		parseTime: parseTime, internTime: internTime,
		noCheckpoint: noCheckpoint,
	})
	if err != nil {
		// The log refused the batch: re-stage it at the head of the queue.
		restage := make([]pendingRun, len(ranges))
		for i, rg := range ranges {
			restage[i].rng = rg
		}
		r.pendingMu.Lock()
		r.pending = append(restage, r.pending...)
		r.pendingParse += parseTime
		r.pendingMu.Unlock()
		return Stats{}, err
	}
	return st, nil
}

// Insert asserts a batch and extends the closure by it, all or nothing:
// the request-scoped write behind INSERT DATA and POST /triples. Triples
// staged earlier are materialized first, in program order; then the
// batch goes through apply on its own, never through the staging
// buffer, so a batch the write-ahead log refuses is dropped with the
// error instead of riding along with a later write. The returned Stats
// describe this batch alone.
func (r *Reasoner) Insert(batch []Triple) (Stats, error) {
	if err := r.settle(false); err != nil {
		return Stats{}, err
	}
	return r.applyAdd(batch)
}

// applyAdd interns one batch, outside every lock, and hands it to apply.
func (r *Reasoner) applyAdd(batch []rdf.Triple) (Stats, error) {
	start := time.Now()
	ranges := r.engine.Intern(batch)
	st, _, err := r.apply(mutation{kind: wal.OpAdd, ranges: ranges, internTime: time.Since(start)})
	return st, err
}

// settle drains the staged triples, when there are any, ahead of a
// retraction or a checkpoint. With nothing staged it takes no lock and
// counts no materialization.
func (r *Reasoner) settle(noCheckpoint bool) error {
	if r.Pending() == 0 {
		return nil
	}
	_, err := r.drain(noCheckpoint)
	return err
}

// mutation is one write to the closure, as apply takes it.
type mutation struct {
	kind   wal.OpKind
	ranges []*reasoner.Range // OpAdd: the batch, interned before the lock
	batch  []rdf.Triple      // OpDelete: the ground triples
	// where, when non-nil, is a DELETE WHERE pattern block: apply
	// resolves it to the batch under the write lock, so no insert can
	// slip between matching and retraction.
	where [][3]string
	// What the caller spent on an OpAdd batch before the lock.
	parseTime, internTime time.Duration
	noCheckpoint          bool // skip the threshold checkpoint
}

// apply is the one door into the closure: Materialize, the SPARQL
// UPDATE forms, replicated records and Open-time replay all pass
// through here, and nothing else mutates the engine, appends to the
// log, or moves the generation. Under the write lock it logs the record
// (write-ahead: a failed append leaves the closure untouched), hands
// the batch to the engine, and bumps the generation; after unlocking it
// runs the threshold checkpoint (see Materialize for its failure rule).
//
// Only a durable reasoner logs, and replayed or replicated records
// never reach one: Open replays before it attaches the manager, and
// ApplyReplicated refuses durable reasoners.
func (r *Reasoner) apply(m mutation) (Stats, reasoner.RetractStats, error) {
	// An add's WAL record is collected from its ranges before the lock.
	record := m.batch
	if m.kind == wal.OpAdd && r.dur != nil {
		start := time.Now()
		n := 0
		for _, rg := range m.ranges {
			n += rg.Len()
		}
		record = make([]rdf.Triple, 0, n)
		for _, rg := range m.ranges {
			record = rg.AppendTriples(record)
		}
		m.internTime += time.Since(start)
	}

	r.mu.Lock()
	held := time.Now()
	unlock := func() {
		r.mu.Unlock()
		r.obs.writeHold.ObserveDuration(time.Since(held))
	}
	if m.where != nil {
		var err error
		if record, err = r.matchPatternsLocked(m.where); err != nil || len(record) == 0 {
			unlock()
			return Stats{}, reasoner.RetractStats{}, err
		}
	}
	if r.dur != nil {
		if err := r.dur.Append(m.kind, record); err != nil {
			unlock()
			return Stats{}, reasoner.RetractStats{}, fmt.Errorf("inferray: write-ahead log: %w", err)
		}
	}
	var st Stats
	var rs reasoner.RetractStats
	var err error
	if m.kind == wal.OpAdd {
		r.engine.LoadRanges(m.ranges)
		st = r.engine.Materialize()
	} else {
		rs, err = r.engine.Retract(record)
	}
	r.bumpGenerationLocked()
	unlock()

	st.ParseTime = m.parseTime
	st.EncodeTime += m.internTime
	r.obs.rm.ObservePhase("parse", m.parseTime)
	r.obs.rm.ObservePhase("encode", m.internTime)

	if !m.noCheckpoint && r.dur != nil && r.dur.ShouldRotate() {
		// A failure does not fail the write: the manager keeps it for
		// DurabilityStats until the next checkpoint succeeds.
		_, _ = r.doCheckpoint()
	}
	return st, rs, err
}

// applyRecord hands one write-ahead-log record — replayed at Open, or
// shipped to a follower — to apply.
func (r *Reasoner) applyRecord(kind wal.OpKind, batch []rdf.Triple) error {
	var err error
	switch kind {
	case wal.OpAdd:
		_, err = r.applyAdd(batch)
	case wal.OpDelete:
		_, _, err = r.apply(mutation{kind: kind, batch: batch})
	default:
		err = fmt.Errorf("inferray: unknown write-ahead-log op kind %d", kind)
	}
	return err
}

// CheckpointInfo reports one completed checkpoint.
type CheckpointInfo struct {
	Generation    uint64        // the new snapshot/WAL generation
	Triples       int           // stored triples captured in the image (virtual triples excluded)
	SnapshotBytes int64         // on-disk image size
	Duration      time.Duration // wall time of image write + rotation
}

// ErrNotDurable is returned by Checkpoint on an in-memory reasoner.
var ErrNotDurable = fmt.Errorf("inferray: reasoner has no durability layer (use Open with WithDurability)")

// Checkpoint forces a durability checkpoint: pending triples are
// materialized (durably), then a fresh snapshot image of the closure is
// written under the read lock — concurrent queries keep running — and
// the write-ahead log is rotated and truncated. Recovery after a
// checkpoint loads the image and replays only batches ingested since.
func (r *Reasoner) Checkpoint() (CheckpointInfo, error) {
	if r.dur == nil {
		return CheckpointInfo{}, ErrNotDurable
	}
	if err := r.settle(true); err != nil {
		return CheckpointInfo{}, err
	}
	return r.doCheckpoint()
}

// doCheckpoint writes the image under the read lock: apply (the only
// store mutator) is excluded, readers are not. Every WAL append
// happens under the write lock, so at this point every logged batch is
// inside the store — deleting the old log after the rename loses
// nothing.
func (r *Reasoner) doCheckpoint() (CheckpointInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cs, err := r.dur.Checkpoint(r.engine.Dict, r.engine.Main, r.imageMetaLocked())
	return CheckpointInfo(cs), err
}

// DurabilityStats describes the persistence layer's state; ok is false
// for in-memory reasoners.
type DurabilityStats struct {
	Dir        string
	SyncPolicy string
	Generation uint64 // current snapshot/WAL generation
	WALRecords int    // batches logged since the last checkpoint
	WALBytes   int64

	LastCheckpointAt       time.Time // zero until a checkpoint ran this process
	LastCheckpointDuration time.Duration
	SnapshotBytes          int64  // size of the newest image
	CheckpointError        string // last failed automatic checkpoint, "" when healthy

	// Recovery of this process's Open.
	RecoveredFromSnapshot bool
	RecoveredGeneration   uint64
	ReplayedRecords       int
	ReplayedTriples       int
	TruncatedTail         bool // a corrupt WAL tail was detected and cut
	CorruptSnapshots      int
}

// DurabilityStats reports the durability layer's state.
func (r *Reasoner) DurabilityStats() (DurabilityStats, bool) {
	if r.dur == nil {
		return DurabilityStats{}, false
	}
	ms := r.dur.Stats()
	return DurabilityStats{
		Dir:                    ms.Dir,
		SyncPolicy:             ms.SyncPolicy,
		Generation:             ms.Generation,
		WALRecords:             ms.WALRecords,
		WALBytes:               ms.WALBytes,
		LastCheckpointAt:       ms.LastCheckpointAt,
		LastCheckpointDuration: ms.LastCheckpoint.Duration,
		SnapshotBytes:          ms.LastCheckpoint.SnapshotBytes,
		CheckpointError:        ms.CheckpointError,
		RecoveredFromSnapshot:  ms.Recovery.SnapshotLoaded,
		RecoveredGeneration:    ms.Recovery.SnapshotMeta.Generation,
		ReplayedRecords:        ms.Recovery.ReplayedRecords,
		ReplayedTriples:        ms.Recovery.ReplayedTriples,
		TruncatedTail:          ms.Recovery.TruncatedTail,
		CorruptSnapshots:       ms.Recovery.CorruptSnapshots,
	}, true
}

// Pending returns how many added triples are staged for the next
// Materialize call.
func (r *Reasoner) Pending() int {
	r.pendingMu.Lock()
	defer r.pendingMu.Unlock()
	n := 0
	for _, run := range r.pending {
		if run.rng != nil {
			n += run.rng.Len()
		}
		n += len(run.triples)
	}
	return n
}

// Fragment returns the rule fragment the reasoner materializes under.
func (r *Reasoner) Fragment() Fragment { return r.engine.Fragment() }

// Size returns the number of distinct visible triples (including
// inferred ones after Materialize). With the hierarchy encoding active
// the virtual subsumption/type triples are counted — Size is identical
// with the encoding on or off.
func (r *Reasoner) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.engine.Size()
}

// StoredSize returns the number of physically stored triples. Without
// the hierarchy encoding it equals Size; with it, the difference is the
// virtual triple count the interval index answers without storing.
func (r *Reasoner) StoredSize() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.engine.StoredSize()
}

// HierarchyEncoded reports whether the hierarchy interval encoding is
// currently active (enabled, and not bypassed by the meta-vocabulary
// guards of DESIGN.md §10).
func (r *Reasoner) HierarchyEncoded() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.engine.HierView() != nil
}

// HierarchyStats describes the hierarchy interval encoding's current
// state: the materialized/virtual split of the visible closure and the
// size of the interval side tables. All virtual counts are zero when
// Encoded is false.
type HierarchyStats struct {
	// Encoded reports whether the encoding is active.
	Encoded bool
	// MaterializedTriples is the physically stored triple count;
	// VirtualTriples the further visible triples answered by the
	// interval index. Their sum is Size().
	MaterializedTriples int
	VirtualTriples      int
	// Classes and Properties count the nodes of the two encoded
	// hierarchies; Intervals the total interval-table size.
	Classes    int
	Properties int
	Intervals  int
}

// HierarchyStats reports the hierarchy encoding's current state.
func (r *Reasoner) HierarchyStats() HierarchyStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	hs := HierarchyStats{MaterializedTriples: r.engine.StoredSize()}
	hv := r.engine.HierView()
	if hv == nil {
		return hs
	}
	vSC, vSP, vType := hv.VirtualCounts()
	hs.Encoded = true
	hs.VirtualTriples = vSC + vSP + vType
	hs.Classes = hv.Idx.Classes.Nodes()
	hs.Properties = hv.Idx.Props.Nodes()
	hs.Intervals = hv.Idx.Intervals()
	return hs
}

// Holds reports whether the closure contains the triple. It is only
// meaningful after Materialize.
func (r *Reasoner) Holds(s, p, o string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.engine.Contains(rdf.Triple{S: s, P: p, O: o})
}

// Triples streams every stored triple; fn may return false to stop. The
// reasoner's read lock is held for the whole enumeration, so fn must
// not call back into the Reasoner.
func (r *Reasoner) Triples(fn func(t Triple) bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.engine.Triples(fn)
}

// AllTriples returns every stored triple as a slice.
func (r *Reasoner) AllTriples() []Triple {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Triple, 0, r.engine.Size())
	r.engine.Triples(func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// WriteNTriples serializes the store (closure, after Materialize) to w.
func (r *Reasoner) WriteNTriples(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var err error
	bw := newBatchingWriter(w, &err)
	r.engine.Triples(func(t Triple) bool {
		bw.write(t)
		return err == nil
	})
	bw.flush()
	return err
}

type batchingWriter struct {
	w   io.Writer
	err *error
	buf []Triple
}

func newBatchingWriter(w io.Writer, err *error) *batchingWriter {
	return &batchingWriter{w: w, err: err, buf: make([]Triple, 0, 4096)}
}

func (b *batchingWriter) write(t Triple) {
	b.buf = append(b.buf, t)
	if len(b.buf) == cap(b.buf) {
		b.flush()
	}
}

func (b *batchingWriter) flush() {
	if len(b.buf) == 0 || *b.err != nil {
		return
	}
	*b.err = rdf.WriteNTriples(b.w, b.buf)
	b.buf = b.buf[:0]
}

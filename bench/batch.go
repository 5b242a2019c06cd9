package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"inferray"
	"inferray/internal/closure"
	"inferray/internal/datagen"
	"inferray/internal/dictionary"
	"inferray/internal/hierarchy"
	"inferray/internal/rdf"
	"inferray/internal/reasoner"
	"inferray/internal/sorting"
	"inferray/internal/store"
)

// batchSpec is one bytes-in → closure-queryable workload: the same call
// sequence over a different generator.
type batchSpec struct {
	name     string
	generate func(e *env) []rdf.Triple
	iters    func(sz sizes) (warm, timed int)
	probe    rdf.Triple // an inferred triple the closure must hold
}

var lubmIngest = batchSpec{
	name:     "lubm_ingest",
	generate: func(e *env) []rdf.Triple { return datagen.LUBM(e.sz.LUBMTriples, e.seed) },
	iters:    func(sz sizes) (int, int) { return sz.IngestWarm, sz.IngestIters },
	probe:    rdf.Triple{S: lubm("Student0"), P: rdf.RDFType, O: lubm("Person")},
}

var taxonomyInfer = batchSpec{
	name: "taxonomy_infer",
	generate: func(e *env) []rdf.Triple {
		t := datagen.YagoLike(e.sz.YagoScale)
		t.Seed = e.seed
		return t.Generate()
	},
	iters: func(sz sizes) (int, int) { return sz.TaxWarm, sz.TaxIters },
	probe: rdf.Triple{S: "<http://example.org/yago/inst/i0>", P: rdf.RDFType, O: "<http://example.org/yago/class/C0>"},
}

// closureCounts is what must repeat across iterations, paths and runs.
type closureCounts struct{ Input, Inferred, Total int }

func countsOf(st inferray.Stats) closureCounts {
	return closureCounts{st.InputTriples, st.InferredTriples, st.TotalTriples}
}

// expectedSeed1 pins the closure sizes of the full-size seed-1 inputs
// (fragment rdfs-plus), so a change that alters what is inferred cannot
// pass as a speed-up.
var expectedSeed1 = map[string]closureCounts{
	"lubm_ingest":    {701_551, 647_685, 1_349_236},
	"lubm_query":     {701_551, 647_685, 1_349_236},
	"taxonomy_infer": {45_849, 1_132_322, 1_178_171},
}

func (r *result) verifyCounts(e *env, got closureCounts) {
	want, pinned := expectedSeed1[r.Workload]
	full := fullSizes(1)
	if !pinned || e.seed != 1 || e.sz.LUBMTriples != full.LUBMTriples || e.sz.YagoScale != full.YagoScale {
		return
	}
	r.verify("seed1_closure_counts", got == want, "closure %+v, pinned %+v", got, want)
}

// setupBatch generates and serializes the input SetupReps times; the
// library only ever sees the bytes.
func (b batchSpec) setup(e *env) (data []byte, setups []float64, err error) {
	for i := 0; i < e.sz.SetupReps; i++ {
		start := time.Now()
		data = nil
		if data, err = serialize(b.generate(e)); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return data, setups, nil
}

// ingestOnce is the root-package path the end-to-end number times.
func (b batchSpec) ingestOnce(data []byte) (*inferray.Reasoner, inferray.Stats, bool, time.Duration, error) {
	start := time.Now()
	r := inferray.New(reasonerOptions()...)
	if err := r.LoadNTriples(bytes.NewReader(data)); err != nil {
		return nil, inferray.Stats{}, false, 0, err
	}
	st, err := r.Materialize()
	if err != nil {
		return nil, st, false, 0, err
	}
	held := r.Holds(b.probe.S, b.probe.P, b.probe.O)
	return r, st, held, time.Since(start), nil
}

// ingestLoop runs warm-ups and timed iterations, checking every
// iteration's closure against the first. It returns the last reasoner,
// the first iteration's digest and the timed samples in seconds.
func (b batchSpec) ingestLoop(res *result, data []byte, warm, iters int) (last *inferray.Reasoner, first digest, counts closureCounts, samples []float64, err error) {
	for i := 0; i < warm+iters; i++ {
		// Every iteration starts from the same heap: the previous closure
		// collected, outside the timed section. Collections the iteration
		// itself triggers stay inside it.
		last = nil
		runtime.GC()
		r, st, held, took, err := b.ingestOnce(data)
		if err != nil {
			return nil, first, counts, nil, err
		}
		last = r
		ok := held
		if i == 0 {
			counts = countsOf(st)
			first = digestOf(r)
		} else if countsOf(st) != counts {
			ok = false
		}
		res.op(1, b2i(!ok))
		if i >= warm {
			samples = append(samples, took.Seconds())
		}
	}
	return last, first, counts, samples, nil
}

func (b batchSpec) run(e *env) (*result, error) {
	res := newResult(b.name)
	base := liveHeap()
	data, setups, err := b.setup(e)
	if err != nil {
		return nil, err
	}
	warm, iters := b.iters(e.sz)
	r, first, counts, samples, err := b.ingestLoop(res, data, warm, iters)
	if err != nil {
		return nil, err
	}
	res.Derived["input_bytes"] = len(data)
	data = nil // only the final reasoner stays live
	heap := liveHeap()

	final := digestOf(r)
	res.verify("closure_identical_across_iterations", final == first, "last %+v, first %+v", final, first)
	res.verify("closure_size", final.N == counts.Total && r.Size() == counts.Total, "digest %d, Size %d, Stats %d", final.N, r.Size(), counts.Total)
	res.verifyCounts(e, counts)
	restarts, err := imageRestart(res, e, r, final, b.probe)
	if err != nil {
		return nil, err
	}

	m := res.EndToEnd
	m.median("setup_s", setups, "s")
	iterMS := scale(samples, 1e3)
	m.median("op_p50_ms", iterMS, "ms")
	m.quantile("op_tail_ms", iterMS, 0.75, "ms")
	m.set("ops_per_s", float64(counts.Input*iters)/sum(samples), "1/s")
	m.set("heap_bytes_per_triple", heapPerTriple(base, heap, counts.Total), "B")
	m.median("restart_s", restarts, "s")
	res.Derived["closure"] = counts
	res.Derived["closure_digest"] = final
	res.Derived["inferred_triples_per_s"] = float64(counts.Inferred) / medianOf(samples)
	return res, nil
}

func sum(samples []float64) (total float64) {
	for _, v := range samples {
		total += v
	}
	return total
}

func scale(samples []float64, by float64) []float64 {
	out := make([]float64, len(samples))
	for i, v := range samples {
		out[i] = v * by
	}
	return out
}

// trace rebuilds the path by hand from the layers' public functions, one
// span per call, then probes the layers that have no call of their own
// on that path.
func (b batchSpec) trace(e *env) (*result, error) {
	res := newResult(b.name)
	data, _, err := b.setup(e)
	if err != nil {
		return nil, err
	}
	// Reference: the untraced root path, for dark time and overhead.
	root, rootDigest, counts, ref, err := b.ingestLoop(res, data, 1, e.sz.TraceIters)
	if err != nil {
		return nil, err
	}
	res.verifyCounts(e, counts)
	// Probe and drop the root reasoner first, so the hand-built
	// iterations run over the same live heap the reference ones did.
	if err := b.probeRoot(res, e, data, root, rootDigest); err != nil {
		return nil, err
	}
	root = nil

	tr := e.tr
	var eng *reasoner.Engine
	var st reasoner.Stats
	var triples []rdf.Triple
	for i := -1; i < e.sz.TraceIters; i++ { // iteration -1 is the warm-up
		eng, triples = nil, nil
		runtime.GC()
		it := tr.begin("ingest", -1, i)
		tr.do("rdf.parse", it, i, func() {
			err = rdf.ReadNTriples(bytes.NewReader(data), func(t rdf.Triple) error {
				triples = append(triples, t)
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		eng = reasoner.New(engineOptions())
		tr.do("reasoner.load", it, i, func() { eng.LoadTriples(triples) })
		tr.do("store.normalize", it, i, func() { eng.Main.NormalizeParallel() })
		tr.do("reasoner.materialize", it, i, func() { st = eng.Materialize() })
		held := false
		tr.do("reasoner.contains", it, i, func() { held = eng.Contains(b.probe) })
		tr.end(it)
		res.op(1, b2i(!held || countsOf(st) != counts))
	}
	got := digestOf(eng)
	res.verify("traced_path_digest", got == rootDigest, "hand-built closure %+v, root path %+v", got, rootDigest)

	m := res.PerLayer
	timed := func(name string) []float64 { return tr.seconds(name)[1:] } // drop the warm-up
	m.median("inferray.ingest_s", ref, "s")
	m.median("rdf.parse_s", timed("rdf.parse"), "s")
	m.median("reasoner.load_s", timed("reasoner.load"), "s")
	m.median("store.normalize_s", timed("store.normalize"), "s")
	m.median("reasoner.materialize_s", timed("reasoner.materialize"), "s")
	m.set("rdf.parse_mb_per_s", float64(len(data))/1e6/m["rdf.parse_s"].Value, "MB/s")
	m.set("reasoner.closure_s", st.ClosureTime.Seconds(), "s")
	m.set("reasoner.loop_s", st.LoopTime.Seconds(), "s")
	m.set("inferray.dark_s", m["inferray.ingest_s"].Value-m["rdf.parse_s"].Value-m["reasoner.load_s"].Value-m["reasoner.materialize_s"].Value, "s")
	traced := medianOf(timed("ingest"))
	m.set("trace.overhead_frac", (traced-m["inferray.ingest_s"].Value)/m["inferray.ingest_s"].Value, "ratio")
	res.exact("reasoner.iterations", int64(st.Iterations))
	res.exact("reasoner.rules_fired", int64(st.RulesFired))
	res.exact("reasoner.rules_skipped", int64(st.RulesSkipped))
	res.exact("reasoner.input_triples", int64(st.InputTriples))
	res.exact("reasoner.inferred_triples", int64(st.InferredTriples))
	res.exact("reasoner.materialized_triples", int64(st.MaterializedTriples))
	res.exact("hierarchy.virtual_triples", int64(st.VirtualTriples))
	res.exact("hierarchy.intervals", int64(st.HierarchyIntervals))

	probeParse(res, data, counts.Input)
	probeDictionary(res, triples)
	b.probeStore(res, e, triples)
	probeChain(res, e)
	return res, nil
}

// probeParse counts the parser's allocations per triple.
func probeParse(res *result, data []byte, triples int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	err := rdf.ReadNTriples(bytes.NewReader(data), func(rdf.Triple) error { n++; return nil })
	runtime.ReadMemStats(&after)
	res.op(1, b2i(err != nil || n != triples))
	res.PerLayer.set("rdf.parse_allocs_per_triple", float64(after.Mallocs-before.Mallocs)/float64(n), "count")
}

// probeDictionary encodes every parsed term into a fresh dictionary.
func probeDictionary(res *result, triples []rdf.Triple) {
	before := liveHeap()
	d := dictionary.New()
	start := time.Now()
	for _, t := range triples {
		d.EncodeProperty(t.P)
		d.EncodeResource(t.S)
		d.EncodeResource(t.O)
	}
	took := time.Since(start)
	after := liveHeap()
	terms := d.NumProperties() + d.NumResources()
	res.PerLayer.set("dictionary.encode_s", took.Seconds(), "s")
	res.exact("dictionary.terms", int64(terms))
	res.PerLayer.set("dictionary.heap_bytes_per_term", heapPerTriple(before, after, terms), "B")
}

// probeStore loads a fresh engine and, before materializing it, times
// the sort over its largest table, the interval index over its asserted
// hierarchy, and the transitive closure of its largest transitive table.
func (b batchSpec) probeStore(res *result, e *env, triples []rdf.Triple) {
	eng := reasoner.New(engineOptions())
	eng.LoadTriples(triples)
	var largest *store.Table
	eng.Main.ForEachTable(func(_ int, t *store.Table) bool {
		if largest == nil || len(t.RawPairs()) > len(largest.RawPairs()) {
			largest = t
		}
		return true
	})
	raw := append([]uint64(nil), largest.RawPairs()...)
	var sorts []float64
	for i := 0; i < e.sz.ProbeRounds; i++ {
		pairs := append([]uint64(nil), raw...)
		sorts = append(sorts, e.tr.do("sorting.sort_pairs", -1, i, func() { pairs = sorting.SortPairs(pairs, true) }).Seconds())
		res.op(1, b2i(!sorting.IsSortedPairs(pairs)))
	}
	res.PerLayer.median("sorting.sort_pairs_s", sorts, "s")
	res.PerLayer.set("sorting.pairs_per_s", float64(len(raw)/2)/medianOf(sorts), "1/s")

	eng.Main.NormalizeParallel()
	pairsOf := func(pidx int) []uint64 {
		if t := eng.Main.Table(pidx); t != nil {
			return t.Pairs()
		}
		return nil
	}
	sc, sp := pairsOf(eng.V.SubClassOf), pairsOf(eng.V.SubPropertyOf)
	var builds []float64
	for i := 0; i < e.sz.ProbeRounds; i++ {
		builds = append(builds, e.tr.do("hierarchy.build", -1, i, func() {
			hierarchy.Build(sc, sp, eng.V.Type, eng.V.SubClassOf, eng.V.SubPropertyOf)
		}).Seconds())
	}
	res.PerLayer.median("hierarchy.build_s", builds, "s")

	// Transitive tables: the two hierarchies plus every property typed
	// owl:TransitiveProperty.
	transitive := [][]uint64{sc, sp}
	for types, i := pairsOf(eng.V.Type), 0; i < len(types); i += 2 {
		if types[i+1] == eng.V.TransitiveProp && dictionary.IsProperty(types[i]) {
			transitive = append(transitive, pairsOf(dictionary.PropIndex(types[i])))
		}
	}
	var widest []uint64
	for _, t := range transitive {
		if len(t) > len(widest) {
			widest = t
		}
	}
	var closes []float64
	for i := 0; i < e.sz.ProbeRounds; i++ {
		in := append([]uint64(nil), widest...)
		closes = append(closes, e.tr.do("closure.close", -1, i, func() { closure.Close(in) }).Seconds())
	}
	res.PerLayer.median("closure.close_s", closes, "s")
}

// probeChain closes the paper's Table 4 shape: a 2,500-edge chain.
func probeChain(res *result, e *env) {
	const n = 2500
	pairs := make([]uint64, 0, 2*n)
	for i := uint64(0); i < n; i++ {
		pairs = append(pairs, i, i+1)
	}
	var closes []float64
	out := 0
	for i := 0; i < e.sz.ProbeRounds; i++ {
		in := append([]uint64(nil), pairs...)
		closes = append(closes, e.tr.do("closure.close_chain2500", -1, i, func() { out = len(closure.Close(in)) / 2 }).Seconds())
	}
	res.PerLayer.median("closure.close_chain2500_s", closes, "s")
	res.exact("closure.pairs_out", int64(out))
	res.verify("chain_closure_size", out == n+datagen.ChainClosureSize(n), "%d pairs, want %d", out, n+datagen.ChainClosureSize(n))
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// probeRoot measures what only the root package exposes: allocation and
// GC cost of one iteration, closure export, and image write/read.
func (b batchSpec) probeRoot(res *result, e *env, data []byte, root *inferray.Reasoner, want digest) error {
	m := res.PerLayer
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, st, held, _, err := b.ingestOnce(data)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	res.op(1, b2i(!held))
	m.set("inferray.alloc_bytes_per_triple", float64(after.TotalAlloc-before.TotalAlloc)/float64(st.TotalTriples), "B")
	m.set("inferray.num_gc", float64(after.NumGC-before.NumGC), "count")
	m.set("inferray.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, "ms")

	var w countingWriter
	took := e.tr.do("inferray.export", -1, 0, func() { err = root.WriteNTriples(&w) })
	if err != nil {
		return err
	}
	m.set("inferray.export_s", took.Seconds(), "s")
	m.set("inferray.export_mb_per_s", float64(w.n)/1e6/took.Seconds(), "MB/s")

	path := fmt.Sprintf("%s/%s-trace.img", e.scratch, b.name)
	defer os.Remove(path)
	took = e.tr.do("snapshot.write", -1, 0, func() { err = root.SaveImage(path) })
	if err != nil {
		return err
	}
	m.set("snapshot.write_s", took.Seconds(), "s")
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("snapshot.bytes_per_triple", float64(info.Size())/float64(root.StoredSize()), "B")
	var loaded *inferray.Reasoner
	took = e.tr.do("snapshot.read", -1, 0, func() { loaded, err = inferray.LoadImage(path, reasonerOptions()...) })
	if err != nil {
		return err
	}
	m.set("snapshot.read_s", took.Seconds(), "s")
	got := digestOf(loaded)
	res.verify("image_round_trip_digest", got == want, "loaded %+v, saved %+v", got, want)
	return nil
}

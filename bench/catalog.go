package main

// metricDef names one metric the way BENCHMARK.json lists it.
// bench_test.go holds the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the system sees. Every workload reports
// every one; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"heap_bytes_per_triple", "B", "lower"},
	{"restart_s", "s", "lower"},
}

// perLayer is what the traced run attributes to single packages. A
// workload reports 0 for a layer its path does not touch.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Batch path: lubm_ingest, taxonomy_infer.
		{"inferray.ingest_s", "s", "lower"},
		{"rdf.parse_s", "s", "lower"},
		{"rdf.parse_mb_per_s", "MB/s", "higher"},
		{"rdf.parse_allocs_per_triple", "count", "lower"},
		{"dictionary.encode_s", "s", "lower"},
		{"dictionary.terms", "count", "lower"},
		{"dictionary.heap_bytes_per_term", "B", "lower"},
		{"reasoner.load_s", "s", "lower"},
		{"store.normalize_s", "s", "lower"},
		{"sorting.sort_pairs_s", "s", "lower"},
		{"sorting.pairs_per_s", "1/s", "higher"},
		{"reasoner.materialize_s", "s", "lower"},
		{"reasoner.closure_s", "s", "lower"},
		{"reasoner.loop_s", "s", "lower"},
		{"reasoner.iterations", "count", "lower"},
		{"reasoner.rules_fired", "count", "lower"},
		{"reasoner.rules_skipped", "count", "higher"},
		{"reasoner.input_triples", "count", "lower"},
		{"reasoner.inferred_triples", "count", "lower"},
		{"reasoner.materialized_triples", "count", "lower"},
		{"hierarchy.virtual_triples", "count", "higher"},
		{"hierarchy.intervals", "count", "lower"},
		{"hierarchy.build_s", "s", "lower"},
		{"closure.close_s", "s", "lower"},
		{"closure.close_chain2500_s", "s", "lower"},
		{"closure.pairs_out", "count", "lower"},
		{"inferray.dark_s", "s", "lower"},
		{"inferray.alloc_bytes_per_triple", "B", "lower"},
		{"inferray.num_gc", "count", "lower"},
		{"inferray.gc_pause_ms", "ms", "lower"},
		{"inferray.export_s", "s", "lower"},
		{"inferray.export_mb_per_s", "MB/s", "higher"},
		{"snapshot.write_s", "s", "lower"},
		{"snapshot.read_s", "s", "lower"},
		{"snapshot.bytes_per_triple", "B", "lower"},
		// Read path: lubm_query.
		{"sparql.parse_us", "us", "lower"},
		{"query.plan_us", "us", "lower"},
		{"query.solve_rows", "count", "lower"},
		{"query.solve_rows_per_s", "1/s", "higher"},
		{"query.solve_allocs_per_row", "count", "lower"},
		{"inferray.exec_allocs_per_row", "count", "lower"},
		{"server.rows_per_s", "1/s", "higher"},
		{"server.response_bytes", "count", "lower"},
		{"server.bytes_per_s", "B/s", "higher"},
		// Write path: lubm_churn.
		{"server.insert_p50_ms", "ms", "lower"},
		{"server.delete_p50_ms", "ms", "lower"},
		{"server.read_p99_ms", "ms", "lower"},
		{"server.read_qps", "1/s", "higher"},
		{"server.update_overhead_us", "us", "lower"},
		{"sparql.parse_update_us", "us", "lower"},
		{"inferray.update_insert_ms", "ms", "lower"},
		{"inferray.update_delete_ms", "ms", "lower"},
		{"inferray.recover_s", "s", "lower"},
		{"reasoner.incremental_ms", "ms", "lower"},
		{"reasoner.retract_ms", "ms", "lower"},
		{"reasoner.overdeleted", "count", "lower"},
		{"reasoner.rederived", "count", "lower"},
		{"wal.append_us", "us", "lower"},
		{"wal.bytes_per_record", "count", "lower"},
		{"wal.bytes_per_user_byte", "ratio", "lower"},
		{"wal.records", "count", "lower"},
		{"wal.fsyncs", "count", "lower"},
		{"wal.replay_s", "s", "lower"},
		{"snapshot.checkpoint_s", "s", "lower"},
		{"snapshot.image_bytes", "B", "lower"},
		{"qcache.hit_ratio", "ratio", "higher"},
		{"qcache.hit_p50_us", "us", "lower"},
		{"qcache.miss_p50_us", "us", "lower"},
		// Every workload.
		{"trace.overhead_frac", "ratio", "lower"},
	}
	for _, family := range []string{"query.solve_us.", "inferray.exec_us.", "inferray.first_row_us.", "server.http_us."} {
		for _, qc := range queryClasses {
			defs = append(defs, metricDef{family + qc.name, "us", "lower"})
		}
	}
	return defs
}()

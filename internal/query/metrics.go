package query

import "inferray/internal/metrics"

// Metrics is the query engine's instrument set. An Engine with a nil
// Metrics field runs uninstrumented; with one set, Solve and friends
// pay only atomic counter updates — the plain-BGP path's allocation
// budget is unchanged (rows are tallied in the exec struct and added
// once per solve).
type Metrics struct {
	// PlannedSolves counts Solve/SolveLeftJoin invocations (the
	// statistics-planned sort-merge engine).
	PlannedSolves *metrics.Counter
	// Rows counts solution rows streamed out of the engine, before any
	// enclosing projection or LIMIT.
	Rows *metrics.Counter
}

// NewMetrics registers the query-engine families into reg and returns
// the instrument set to hang on Engine.Metrics.
func NewMetrics(reg *metrics.Registry) *Metrics {
	solves := reg.CounterVec("inferray_query_solves_total",
		"Basic graph pattern solves by engine (planned = statistics-ordered sort-merge).",
		"engine")
	return &Metrics{
		PlannedSolves: solves.With("planned"),
		Rows: reg.Counter("inferray_query_engine_rows_total",
			"Solution rows streamed out of the pattern engine, before projection and LIMIT."),
	}
}

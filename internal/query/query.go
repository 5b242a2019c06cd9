// Package query evaluates basic graph patterns (conjunctions of triple
// patterns) over a materialized store. The paper positions Inferray as a
// storage-and-inference layer under a SPARQL engine (§1, §2): after
// forward chaining, queries reduce to index scans over the sorted
// property tables — subject runs on the ⟨s,o⟩ order, object runs on the
// cached ⟨o,s⟩ order, full table scans otherwise. Solve orders the
// patterns up front with a selectivity-estimating planner fed by
// per-table statistics and executes shared-variable joins as sort-merge
// joins over the sorted layouts (plan.go). DESIGN.md §9 documents the
// cost model and the per-access-class complexity table.
package query

import (
	"fmt"

	"inferray/internal/store"
)

// Term is one position of a triple pattern: a constant ID or a variable
// slot (index into the solution row).
type Term struct {
	IsVar bool
	Var   int
	ID    uint64
}

// Var constructs a variable pattern term bound to a solution slot.
func Var(slot int) Term { return Term{IsVar: true, Var: slot} }

// Const constructs a constant pattern term from a dictionary ID.
func Const(id uint64) Term { return Term{ID: id} }

// Pattern is one triple pattern.
type Pattern struct{ S, P, O Term }

// Virtual supplies computed triples for a subset of property tables —
// the hierarchy interval encoding's virtual subsumption pairs
// (hierarchy.View is the one implementation). For a pidx claimed by
// VirtualPidx, the engine routes every access through the interface
// instead of the stored table: the visible relation may be a strict
// superset of the stored pairs. Scan callbacks must deliver ascending
// ids (ScanAll: ⟨s,o⟩ order, or ⟨o,s⟩ when osOrder) and return false
// when the consumer aborted the walk.
type Virtual interface {
	// VirtualPidx reports whether pidx carries virtual content.
	VirtualPidx(pidx int) bool
	// Contains reports whether ⟨s, pidx, o⟩ is visible.
	Contains(pidx int, s, o uint64) bool
	// ScanSubject streams the visible objects of s ascending.
	ScanSubject(pidx int, s uint64, fn func(o uint64) bool) bool
	// ScanObject streams the visible subjects of o ascending.
	ScanObject(pidx int, o uint64, fn func(s uint64) bool) bool
	// ScanAll streams all visible pairs, in ⟨o,s⟩ order when osOrder.
	ScanAll(pidx int, osOrder bool, fn func(s, o uint64) bool) bool
	// Stats returns visible-relation statistics for the planner.
	Stats(pidx int) store.TableStats
}

// Engine evaluates patterns against a normalized store. When Virtual is
// non-nil, the property tables it claims are answered through it (the
// hierarchy range-scan access class) instead of the stored pairs.
type Engine struct {
	St      *store.Store
	Virtual Virtual
	// Metrics, when non-nil, receives solve and row counters. Updates
	// are atomic adds only — safe on the hot path.
	Metrics *Metrics
	// Stop, when non-nil, is polled once every stopEvery candidate triples
	// the walk visits, matching or not, so a join that probes for long
	// without producing a row can still be interrupted. Once it returns
	// an error the walk ends and Solve / SolveLeftJoin return that error.
	// A caller arms it only for a cancelable context (ctx.Err); nil costs
	// the walk one predictable branch per candidate.
	Stop func() error
}

// stopEvery is how many candidate triples the walk visits between polls
// of Engine.Stop.
const stopEvery = 4096

// virtualPidx reports whether pidx is routed through e.Virtual.
func (e *Engine) virtualPidx(pidx int) bool {
	return e.Virtual != nil && e.Virtual.VirtualPidx(pidx)
}

// Solve enumerates all solutions of the conjunctive pattern list. Each
// solution is delivered as a row of variable bindings (indexed by
// variable slot); fn may return false to stop enumeration early.
// nVars is the number of variable slots used by the patterns.
//
// Solve plans the pattern order up front from per-table statistics
// (Plan) and executes shared-variable joins as sort-merge joins over
// the sorted table layouts (see plan.go).
func (e *Engine) Solve(patterns []Pattern, nVars int, fn func(row []uint64) bool) error {
	if err := e.validate(patterns, nVars); err != nil {
		return err
	}
	x := &exec{e: e, steps: e.buildPlan(patterns, 0), row: make([]uint64, nVars), fnRow: fn}
	x.run(x.steps, 0, 0, nil)
	if m := e.Metrics; m != nil {
		m.PlannedSolves.Inc()
		m.Rows.Add(x.rows)
	}
	return x.err
}

// OptionalGroup is one OPTIONAL block for SolveLeftJoin: a basic graph
// pattern left-joined against the required solution, plus an optional
// acceptance callback (the caller's hook for the block's FILTERs).
type OptionalGroup struct {
	// Patterns is the block's basic graph pattern.
	Patterns []Pattern
	// Accept, when non-nil, is invoked with every candidate extension
	// (the shared row plus the extension's bound mask) before it counts
	// as a match; returning false rejects the extension. A block whose
	// extensions are all rejected contributes the null row — its
	// variables stay unbound — exactly like a block that never matched.
	Accept func(row []uint64, bound uint64) bool
}

// Binding pre-binds one variable slot before evaluation — the seed
// SolveLeftJoin takes for inline VALUES data, which SPARQL joins with
// the group's graph pattern *before* the OPTIONAL left joins.
type Binding struct {
	// Slot is the variable slot to bind.
	Slot int
	// ID is the dictionary ID the slot is pinned to.
	ID uint64
}

// SolveLeftJoin enumerates the solutions of the required pattern list
// under the seed bindings (nil for none), left-joined with each
// optional group in order (SPARQL's OPTIONAL). fn receives the shared
// solution row and the mask of bound variable slots — seeded slots are
// always in the mask; slots outside it hold stale values and must be
// ignored. An empty required list stands for the unit solution, so a
// query of only OPTIONAL blocks (or only seeded VALUES data) still
// evaluates. fn may return false to stop enumeration early.
func (e *Engine) SolveLeftJoin(patterns []Pattern, optionals []OptionalGroup, nVars int, seed []Binding, fn func(row []uint64, bound uint64) bool) error {
	if err := e.validate(patterns, nVars); err != nil {
		return err
	}
	x := &exec{e: e, row: make([]uint64, nVars), fn: fn}
	var initMask uint64
	for _, s := range seed {
		if s.Slot < 0 || s.Slot >= nVars {
			return fmt.Errorf("query: seed slot %d out of range [0,%d)", s.Slot, nVars)
		}
		x.row[s.Slot] = s.ID
		initMask |= 1 << uint(s.Slot)
	}
	x.steps = e.buildPlan(patterns, initMask)
	mask := initMask | varMask(patterns)
	for _, og := range optionals {
		if err := e.validate(og.Patterns, nVars); err != nil {
			return err
		}
		// Each optional is planned as if the required patterns and every
		// earlier optional matched — optimistic, but the plan is only an
		// ordering heuristic; the runtime bound mask keeps it correct.
		x.opts = append(x.opts, optLayer{steps: e.buildPlan(og.Patterns, mask), accept: og.Accept})
		mask |= varMask(og.Patterns)
	}
	var done func(uint64) bool
	if len(x.opts) > 0 {
		done = func(bound uint64) bool { return x.runOptional(0, bound) }
	}
	// With no optional layers done stays nil and the walk delivers
	// straight to fn — every plain BGP query's path.
	x.run(x.steps, 0, initMask, done)
	if m := e.Metrics; m != nil {
		m.PlannedSolves.Inc()
		m.Rows.Add(x.rows)
	}
	return x.err
}

// varMask returns the bitmask of variable slots the patterns mention.
func varMask(patterns []Pattern) uint64 {
	var m uint64
	for _, p := range patterns {
		for _, t := range []Term{p.S, p.P, p.O} {
			if t.IsVar {
				m |= 1 << uint(t.Var)
			}
		}
	}
	return m
}

// validate bounds-checks the variable slots against nVars.
func (e *Engine) validate(patterns []Pattern, nVars int) error {
	if nVars < 0 || nVars > 64 {
		return fmt.Errorf("query: variable count %d out of range", nVars)
	}
	for _, p := range patterns {
		for _, t := range []Term{p.S, p.P, p.O} {
			if t.IsVar && (t.Var < 0 || t.Var >= nVars) {
				return fmt.Errorf("query: variable slot %d out of range [0,%d)", t.Var, nVars)
			}
		}
	}
	return nil
}

// termBound reports whether a term is a constant or an already-bound
// variable.
func termBound(t Term, bound uint64) bool {
	return !t.IsVar || bound&(1<<uint(t.Var)) != 0
}

// termValue resolves a term under the bindings; only valid when bound.
func termValue(t Term, row []uint64) uint64 {
	if t.IsVar {
		return row[t.Var]
	}
	return t.ID
}

package query

// The greedy reference engine: the access-class-greedy nested-loop
// evaluator Solve replaced. It lives in a test file — the serving binary
// links one engine — as the planner's equivalence reference (checked,
// like Solve, against the brute-force evaluator in query_test.go) and
// as the baseline arm of BenchmarkPlannedVsGreedy. DESIGN.md §9 has the
// per-access-class comparison.

import (
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/store"
)

// SolveGreedy enumerates the same solutions as Solve with the original
// nested-loop engine: at every recursion step the most selective
// remaining pattern by coarse access class is chosen, and every probe
// is an independent binary search.
func (e *Engine) SolveGreedy(patterns []Pattern, nVars int, fn func(row []uint64) bool) error {
	if err := e.validate(patterns, nVars); err != nil {
		return err
	}
	row := make([]uint64, nVars)
	var bound uint64 // bitmask of bound slots
	remaining := append([]Pattern(nil), patterns...)
	e.solve(remaining, row, bound, fn)
	return nil
}

// solve picks the most selective remaining pattern, enumerates its
// matches, and recurses. Returns false if fn aborted.
func (e *Engine) solve(remaining []Pattern, row []uint64, bound uint64, fn func([]uint64) bool) bool {
	if len(remaining) == 0 {
		return fn(row)
	}
	// Greedy selection: lowest selectivity class first.
	best, bestClass := 0, 1<<30
	for i, p := range remaining {
		c := e.accessClass(p, bound)
		if c < bestClass {
			best, bestClass = i, c
		}
	}
	p := remaining[best]
	rest := make([]Pattern, 0, len(remaining)-1)
	rest = append(rest, remaining[:best]...)
	rest = append(rest, remaining[best+1:]...)

	cont := true
	e.enumerate(p, row, bound, func(newBound uint64) bool {
		cont = e.solve(rest, row, newBound, fn)
		return cont
	})
	return cont
}

// accessClass estimates an access path's cost class under the current
// bindings (lower = more selective).
func (e *Engine) accessClass(p Pattern, bound uint64) int {
	s := termBound(p.S, bound)
	pr := termBound(p.P, bound)
	o := termBound(p.O, bound)
	switch {
	case s && pr && o:
		return 0 // existence check
	case pr && (s || o):
		return 1 // run scan
	case pr:
		return 2 // single-table scan
	case s || o:
		return 3 // all tables, run scans
	default:
		return 4 // full store scan
	}
}

// enumerate walks every match of one pattern under the current bindings,
// binding its free variables into row and invoking fn with the updated
// bound mask. fn returning false stops the walk.
func (e *Engine) enumerate(p Pattern, row []uint64, bound uint64, fn func(uint64) bool) {
	sB := termBound(p.S, bound)
	pB := termBound(p.P, bound)
	oB := termBound(p.O, bound)

	tryTriple := func(pidx int, s, o uint64) bool {
		newBound := bound
		bind := func(t Term, v uint64) bool {
			if !t.IsVar {
				return t.ID == v
			}
			if newBound&(1<<uint(t.Var)) != 0 {
				return row[t.Var] == v
			}
			row[t.Var] = v
			newBound |= 1 << uint(t.Var)
			return true
		}
		if !bind(p.S, s) || !bind(p.P, dictionary.PropID(pidx)) || !bind(p.O, o) {
			return true // mismatch: keep walking
		}
		return fn(newBound)
	}

	scanTable := func(pidx int, t *store.Table) bool {
		sv, ov := uint64(0), uint64(0)
		if sB {
			sv = termValue(p.S, row)
		}
		if oB {
			ov = termValue(p.O, row)
		}
		switch {
		case sB && oB:
			if t.Contains(sv, ov) {
				return tryTriple(pidx, sv, ov)
			}
			return true
		case sB:
			pairs := t.Pairs()
			lo, hi := t.SubjectRun(sv)
			for i := lo; i < hi; i++ {
				if !tryTriple(pidx, sv, pairs[2*i+1]) {
					return false
				}
			}
			return true
		case oB:
			os := t.OS()
			lo, hi := store.KeyRun(os, ov)
			for i := lo; i < hi; i++ {
				if !tryTriple(pidx, os[2*i+1], ov) {
					return false
				}
			}
			return true
		default:
			pairs := t.Pairs()
			for i := 0; i < len(pairs); i += 2 {
				if !tryTriple(pidx, pairs[i], pairs[i+1]) {
					return false
				}
			}
			return true
		}
	}

	// scanVirtual mirrors scanTable for the encoded properties answered
	// through the Virtual interface.
	scanVirtual := func(pidx int) bool {
		v := e.Virtual
		switch {
		case sB && oB:
			sv, ov := termValue(p.S, row), termValue(p.O, row)
			if v.Contains(pidx, sv, ov) {
				return tryTriple(pidx, sv, ov)
			}
			return true
		case sB:
			sv := termValue(p.S, row)
			return v.ScanSubject(pidx, sv, func(o uint64) bool {
				return tryTriple(pidx, sv, o)
			})
		case oB:
			ov := termValue(p.O, row)
			return v.ScanObject(pidx, ov, func(s uint64) bool {
				return tryTriple(pidx, s, ov)
			})
		default:
			return v.ScanAll(pidx, false, func(s, o uint64) bool {
				return tryTriple(pidx, s, o)
			})
		}
	}

	if pB {
		pid := termValue(p.P, row)
		if !dictionary.IsProperty(pid) {
			return
		}
		pidx := dictionary.PropIndex(pid)
		if e.virtualPidx(pidx) {
			scanVirtual(pidx)
			return
		}
		t := e.St.Table(pidx)
		if t == nil || t.Empty() {
			return
		}
		scanTable(pidx, t)
		return
	}
	e.St.ForEachTable(func(pidx int, t *store.Table) bool {
		if e.virtualPidx(pidx) {
			return scanVirtual(pidx)
		}
		return scanTable(pidx, t)
	})
}

// benchStore builds the three-table join workload: property 0 with np
// pairs whose objects fan into [1, m], property 1 mapping [1, m] onto
// [1, m], and property 2 holding only nr subjects out of that range —
// nr controls the join's selectivity skew.
func benchStore(np, m, nr int) *store.Store {
	st := store.New(3)
	p := st.Ensure(0)
	for i := 1; i <= np; i++ {
		p.Append(uint64(1_000_000+i), uint64(i%m+1))
	}
	q := st.Ensure(1)
	for i := 1; i <= m; i++ {
		q.Append(uint64(i), uint64((i*7)%m+1))
	}
	r := st.Ensure(2)
	for i := 1; i <= nr; i++ {
		r.Append(uint64(i), uint64(2_000_000+i))
	}
	st.Normalize()
	return st
}

// BenchmarkPlannedVsGreedy compares the planned sort-merge engine
// (Solve) against the greedy reference on multi-pattern joins. The
// skewed case lists the 200k-pair table first in the query text with
// the 20-pair table last — exactly the ordering the greedy ranking
// cannot fix, because all three patterns share one access class.
// Results are recorded in EXPERIMENTS.md.
func BenchmarkPlannedVsGreedy(b *testing.B) {
	cases := []struct {
		name      string
		np, m, nr int
		star      bool
	}{
		{name: "chain3-uniform", np: 10_000, m: 10_000, nr: 10_000},
		{name: "chain3-skewed", np: 200_000, m: 20_000, nr: 20},
		{name: "star3-skewed", np: 50_000, m: 5_000, nr: 50, star: true},
	}
	for _, c := range cases {
		e := &Engine{St: benchStore(c.np, c.m, c.nr)}
		pid := func(i int) uint64 { return dictionary.PropID(i) }
		// chain: ?x p ?y . ?y q ?z . ?z r ?w — biggest table first.
		patterns := []Pattern{
			{S: Var(0), P: Const(pid(0)), O: Var(1)},
			{S: Var(1), P: Const(pid(1)), O: Var(2)},
			{S: Var(2), P: Const(pid(2)), O: Var(3)},
		}
		if c.star {
			// star: ?x p ?a . ?x q ?b . ?x r ?c over the shared subject
			// range [1, m].
			patterns = []Pattern{
				{S: Var(0), P: Const(pid(1)), O: Var(1)},
				{S: Var(0), P: Const(pid(1)), O: Var(2)},
				{S: Var(0), P: Const(pid(2)), O: Var(3)},
			}
		}

		// Sanity: both engines agree before anything is timed.
		count := func(solve func([]Pattern, int, func([]uint64) bool) error) int {
			n := 0
			if err := solve(patterns, 4, func([]uint64) bool { n++; return true }); err != nil {
				b.Fatal(err)
			}
			return n
		}
		planned, greedy := count(e.Solve), count(e.SolveGreedy)
		if planned != greedy {
			b.Fatalf("%s: planned %d rows, greedy %d", c.name, planned, greedy)
		}

		for _, eng := range []struct {
			name  string
			solve func([]Pattern, int, func([]uint64) bool) error
		}{{"planned", e.Solve}, {"greedy", e.SolveGreedy}} {
			b.Run(c.name+"/"+eng.name, func(b *testing.B) {
				b.ReportAllocs()
				rows := 0
				for i := 0; i < b.N; i++ {
					rows = 0
					if err := eng.solve(patterns, 4, func([]uint64) bool {
						rows++
						return true
					}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

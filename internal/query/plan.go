package query

// Selectivity-based planning and sort-merge execution. The paper's
// sorted property tables (§5.1, §5.4) make two things cheap that a
// generic triple store has to work for: per-table statistics (run
// counting over the sorted ⟨s,o⟩ / ⟨o,s⟩ layouts) and ordered access to
// the pairs of one property. The planner uses the first to order a
// basic graph pattern most-selective-first *before* execution starts —
// unlike the greedy engine (query.go), which only ranks coarse access
// classes and so cannot tell a 10-pair table from a 10-million-pair
// one. The executor uses the second to run shared-variable joins as
// sort-merge joins: every probe into a table remembers its position,
// and while the probe keys arrive in nondecreasing order (the common
// case, because the driving scan is itself sorted) the next run is
// found by galloping forward from the previous one instead of a fresh
// binary search. A key that moves backward falls back to the full
// binary search, so the cursor is a pure optimization — correctness
// never depends on sortedness. Fully bound patterns keep the existing
// bound-probe (Contains) path.

import (
	"math"

	"inferray/internal/dictionary"
	"inferray/internal/store"
)

// planStep is one pattern with its planned access decisions.
type planStep struct {
	pat Pattern
	// scanOS scans the table in ⟨o,s⟩ order when the step is a full
	// table scan, so the object variable streams out sorted for the
	// next step's merge cursor.
	scanOS bool
	// Merge cursors, one per view; reset at the start of every Solve.
	soCur, osCur cursorPos
}

// cursorPos remembers the last probed run of one table view.
type cursorPos struct {
	key   uint64
	pos   int
	valid bool
}

// Plan orders the patterns of a basic graph pattern most-selective-
// first using table statistics, and picks each full scan's orientation
// so that join variables stream out sorted where possible. It is
// exported for tests and EXPLAIN-style tooling; Solve plans internally.
func (e *Engine) Plan(patterns []Pattern) []int {
	return e.planFrom(patterns, 0)
}

// planFrom is Plan with an initial bound-variable mask — the planning
// entry point for OPTIONAL groups, whose patterns start with the outer
// solution's variables already bound.
func (e *Engine) planFrom(patterns []Pattern, initBound uint64) []int {
	type agg struct {
		pairs, subjects, objects float64
		tables                   float64
	}
	var a agg
	var haveAgg bool
	aggregate := func() agg {
		if haveAgg {
			return a
		}
		e.St.ForEachTable(func(pidx int, t *store.Table) bool {
			var st store.TableStats
			if e.virtualPidx(pidx) {
				st = e.Virtual.Stats(pidx)
			} else {
				st = t.Stats()
			}
			a.pairs += float64(st.Pairs)
			a.subjects += float64(st.Subjects)
			a.objects += float64(st.Objects)
			a.tables++
			return true
		})
		haveAgg = true
		return a
	}

	// estimate approximates the number of rows the pattern yields under
	// the bound-variable set (lower = run earlier).
	estimate := func(p Pattern, bound uint64) float64 {
		s := termBound(p.S, bound)
		pr := termBound(p.P, bound)
		o := termBound(p.O, bound)
		if !p.P.IsVar {
			if !dictionary.IsProperty(p.P.ID) {
				return 0 // not a property: matches nothing
			}
			pidx := dictionary.PropIndex(p.P.ID)
			t := e.St.Table(pidx)
			if t == nil || t.Empty() {
				// A virtual table is empty exactly when its stored table
				// is (virtual pairs derive from stored ones), so this
				// also proves virtual emptiness.
				return 0 // empty table: proves emptiness immediately
			}
			// The hierarchy access class: visible-relation statistics
			// stand in for the stored table's, so interval range scans
			// are costed by the rows they actually yield.
			var st store.TableStats
			if e.virtualPidx(pidx) {
				st = e.Virtual.Stats(pidx)
			} else {
				st = t.Stats()
			}
			switch {
			case s && o:
				return 0.5 // existence probe: filters, never expands
			case s:
				return float64(st.Pairs) / float64(st.Subjects)
			case o:
				return float64(st.Pairs) / float64(st.Objects)
			default:
				return float64(st.Pairs)
			}
		}
		ag := aggregate()
		switch {
		case pr && s && o:
			return 0.5
		case pr && (s || o):
			// Predicate bound by a previous pattern: one table's average
			// run, but which table is unknown until execution.
			if ag.tables == 0 {
				return 0
			}
			return ag.pairs / math.Max(ag.subjects, 1)
		case pr:
			return ag.pairs / math.Max(ag.tables, 1)
		case s && o:
			return ag.tables // one existence probe per table
		case s || o:
			return ag.pairs / math.Max(ag.subjects, 1) * math.Max(ag.tables, 1)
		default:
			return ag.pairs
		}
	}

	order := make([]int, 0, len(patterns))
	used := make([]bool, len(patterns))
	bound := initBound
	for len(order) < len(patterns) {
		// Prefer patterns anchored to a constant or joined to an
		// already-bound variable: an unanchored pattern is a cartesian
		// product regardless of its size. Among candidates of the same
		// class the smallest estimate wins, ties broken by query order.
		best, bestCost := -1, math.Inf(1)
		bestFloat, bestFloatCost := -1, math.Inf(1)
		for i, p := range patterns {
			if used[i] {
				continue
			}
			c := estimate(p, bound)
			if (initBound == 0 && len(order) == 0) || connected(p, bound) {
				if c < bestCost {
					best, bestCost = i, c
				}
			} else if c < bestFloatCost {
				bestFloat, bestFloatCost = i, c
			}
		}
		if best == -1 {
			best = bestFloat
		}
		used[best] = true
		order = append(order, best)
		for _, t := range []Term{patterns[best].S, patterns[best].P, patterns[best].O} {
			if t.IsVar {
				bound |= 1 << uint(t.Var)
			}
		}
	}
	return order
}

// connected reports whether the pattern shares a variable with the
// bound set or has any constant (a constant anchors the scan).
func connected(p Pattern, bound uint64) bool {
	for _, t := range []Term{p.S, p.P, p.O} {
		if t.IsVar && bound&(1<<uint(t.Var)) != 0 {
			return true
		}
		if !t.IsVar {
			return true
		}
	}
	return false
}

// buildPlan materializes the ordered steps and chooses scan
// orientations: a full table scan whose object variable is the next
// step's probe key runs over the ⟨o,s⟩ view so the probe keys arrive
// sorted. initBound carries the variables an enclosing solution has
// already bound (0 for a top-level basic graph pattern).
func (e *Engine) buildPlan(patterns []Pattern, initBound uint64) []planStep {
	order := e.planFrom(patterns, initBound)
	steps := make([]planStep, len(order))
	bound := initBound
	for i, idx := range order {
		steps[i] = planStep{pat: patterns[idx]}
		p := patterns[idx]
		sFree := p.S.IsVar && bound&(1<<uint(p.S.Var)) == 0
		oFree := p.O.IsVar && bound&(1<<uint(p.O.Var)) == 0
		if sFree && oFree && !p.P.IsVar && i+1 < len(order) {
			next := patterns[order[i+1]]
			if joinsOn(next, p.O.Var, bound) && !joinsOn(next, p.S.Var, bound) {
				steps[i].scanOS = true
			}
		}
		for _, t := range []Term{p.S, p.P, p.O} {
			if t.IsVar {
				bound |= 1 << uint(t.Var)
			}
		}
	}
	return steps
}

// joinsOn reports whether the pattern's subject or object is exactly
// the given (currently unbound) variable slot.
func joinsOn(p Pattern, slot int, bound uint64) bool {
	if bound&(1<<uint(slot)) != 0 {
		return false
	}
	return p.S.IsVar && p.S.Var == slot || p.O.IsVar && p.O.Var == slot
}

// ------------------------------------------------------------- execution

// exec carries one Solve/SolveLeftJoin invocation's state: the planned
// required steps, the planned optional layers (left-joined in order),
// and the shared solution row. The bound mask, not the row contents,
// says which slots are live — optional layers that did not match leave
// stale values behind, masked off. Exactly one of fnRow (Solve's
// mask-free fast path) and fn is set.
type exec struct {
	e     *Engine
	steps []planStep
	opts  []optLayer
	row   []uint64
	fnRow func(row []uint64) bool
	fn    func(row []uint64, bound uint64) bool
	// rows tallies delivered solutions locally; the owning Solve adds
	// it to Engine.Metrics once, keeping the walk free of atomics.
	rows uint64
	// visited counts candidate triples for the Engine.Stop poll; err is
	// what the poll returned when it ended the walk.
	visited uint64
	err     error
}

// optLayer is one planned OPTIONAL group.
type optLayer struct {
	steps  []planStep
	accept func(row []uint64, bound uint64) bool // nil = accept all
}

// run enumerates the steps from index i under the bound mask, calling
// done with the final mask for every complete assignment — or, when
// done is nil (the top-level walk of a query without optional layers),
// delivering straight to the solution callback. Returns false when the
// consumer aborted the walk.
//
// The recursion is continuation-free on purpose: each step advances by
// direct method calls (enumStep → enumTable → tryTriple → run), never
// by a per-level closure. With closures, every partial assignment
// allocates its continuation — measured at ~6 allocs per delivered row
// on the uniform 3-chain — where the direct form keeps the whole walk
// at Solve's fixed five allocations regardless of result size.
func (x *exec) run(steps []planStep, i int, bound uint64, done func(uint64) bool) bool {
	if i == len(steps) {
		switch {
		case done != nil:
			return done(bound)
		case x.fnRow != nil:
			x.rows++
			return x.fnRow(x.row)
		default:
			x.rows++
			return x.fn(x.row, bound)
		}
	}
	return x.enumStep(steps, i, bound, done)
}

// runOptional left-joins the optional layers from index layer on:
// every accepted extension of the current solution is delivered, and a
// layer with no accepted extension passes the solution through with
// its variables unbound (the SPARQL left-join's null row).
func (x *exec) runOptional(layer int, bound uint64) bool {
	if layer == len(x.opts) {
		x.rows++
		return x.fn(x.row, bound)
	}
	o := &x.opts[layer]
	matched := false
	cont := x.run(o.steps, 0, bound, func(nb uint64) bool {
		if o.accept != nil && !o.accept(x.row, nb) {
			return true // rejected extension: keep walking
		}
		matched = true
		return x.runOptional(layer+1, nb)
	})
	if !cont {
		return false
	}
	if !matched {
		return x.runOptional(layer+1, bound)
	}
	return true
}

// enumStep walks every match of one planned step under the current
// bindings and recurses into the remaining steps for each. Returns
// false only when the consumer aborted the walk.
func (x *exec) enumStep(steps []planStep, i int, bound uint64, done func(uint64) bool) bool {
	p := steps[i].pat
	sB := termBound(p.S, bound)
	pB := termBound(p.P, bound)
	oB := termBound(p.O, bound)

	if pB {
		pid := termValue(p.P, x.row)
		if !dictionary.IsProperty(pid) {
			return true
		}
		pidx := dictionary.PropIndex(pid)
		if x.e.virtualPidx(pidx) {
			return x.enumVirtual(steps, i, bound, done, pidx, steps[i].scanOS, sB, oB)
		}
		t := x.e.St.Table(pidx)
		if t == nil || t.Empty() {
			return true
		}
		return x.enumTable(steps, i, bound, done, pidx, t, !p.P.IsVar, sB, oB)
	}
	cont := true
	x.e.St.ForEachTable(func(pidx int, t *store.Table) bool {
		if x.e.virtualPidx(pidx) {
			cont = x.enumVirtual(steps, i, bound, done, pidx, false, sB, oB)
		} else {
			cont = x.enumTable(steps, i, bound, done, pidx, t, false, sB, oB)
		}
		return cont
	})
	return cont
}

// enumTable enumerates the matches of step i in one property table;
// merge cursors are only used on the planned table (cursored == true),
// since a cursor is per-table state and the variable-predicate path
// touches them all.
func (x *exec) enumTable(steps []planStep, i int, bound uint64, done func(uint64) bool, pidx int, t *store.Table, cursored bool, sB, oB bool) bool {
	step := &steps[i]
	p := step.pat
	sv, ov := uint64(0), uint64(0)
	if sB {
		sv = termValue(p.S, x.row)
	}
	if oB {
		ov = termValue(p.O, x.row)
	}
	switch {
	case sB && oB:
		if t.Contains(sv, ov) {
			return x.tryTriple(steps, i, bound, done, pidx, sv, ov)
		}
		return true
	case sB:
		pairs := t.Pairs()
		var lo, hi int
		if cursored {
			lo, hi = runFrom(pairs, sv, &step.soCur)
		} else {
			lo, hi = t.SubjectRun(sv)
		}
		for j := lo; j < hi; j++ {
			if !x.tryTriple(steps, i, bound, done, pidx, sv, pairs[2*j+1]) {
				return false
			}
		}
		return true
	case oB:
		os := t.OS()
		var lo, hi int
		if cursored {
			lo, hi = runFrom(os, ov, &step.osCur)
		} else {
			lo, hi = store.KeyRun(os, ov)
		}
		for j := lo; j < hi; j++ {
			if !x.tryTriple(steps, i, bound, done, pidx, os[2*j+1], ov) {
				return false
			}
		}
		return true
	default:
		pairs := t.Pairs()
		if cursored && step.scanOS {
			pairs = t.OS()
			for j := 0; j < len(pairs); j += 2 {
				if !x.tryTriple(steps, i, bound, done, pidx, pairs[j+1], pairs[j]) {
					return false
				}
			}
			return true
		}
		for j := 0; j < len(pairs); j += 2 {
			if !x.tryTriple(steps, i, bound, done, pidx, pairs[j], pairs[j+1]) {
				return false
			}
		}
		return true
	}
}

// enumVirtual answers one encoded property through the Virtual
// interface — the hierarchy range-scan access class. The shapes mirror
// enumTable: existence probe, subject scan, object scan, full
// enumeration (optionally in ⟨o,s⟩ order). The interface callbacks are
// closures, so a virtual step pays a small per-call allocation the
// stored-table path does not; only hierarchy-encoded predicates take
// this branch.
func (x *exec) enumVirtual(steps []planStep, i int, bound uint64, done func(uint64) bool, pidx int, osOrder bool, sB, oB bool) bool {
	v := x.e.Virtual
	p := steps[i].pat
	switch {
	case sB && oB:
		sv, ov := termValue(p.S, x.row), termValue(p.O, x.row)
		if v.Contains(pidx, sv, ov) {
			return x.tryTriple(steps, i, bound, done, pidx, sv, ov)
		}
		return true
	case sB:
		sv := termValue(p.S, x.row)
		return v.ScanSubject(pidx, sv, func(o uint64) bool {
			return x.tryTriple(steps, i, bound, done, pidx, sv, o)
		})
	case oB:
		ov := termValue(p.O, x.row)
		return v.ScanObject(pidx, ov, func(s uint64) bool {
			return x.tryTriple(steps, i, bound, done, pidx, s, ov)
		})
	default:
		return v.ScanAll(pidx, osOrder, func(s, o uint64) bool {
			return x.tryTriple(steps, i, bound, done, pidx, s, o)
		})
	}
}

// tryTriple unifies step i's pattern with the concrete triple
// (s, property pidx, o) and, on success, recurses into the remaining
// steps. A unification mismatch keeps the walk going; false means the
// consumer aborted or Engine.Stop ended the walk. Every scan of every
// step passes its candidates through here, which is what makes it the
// one place to poll.
func (x *exec) tryTriple(steps []planStep, i int, bound uint64, done func(uint64) bool, pidx int, s, o uint64) bool {
	if x.e.Stop != nil {
		if x.visited++; x.visited%stopEvery == 0 {
			if x.err = x.e.Stop(); x.err != nil {
				return false
			}
		}
	}
	p := steps[i].pat
	nb := bound
	if !bindTerm(p.S, s, x.row, &nb) ||
		!bindTerm(p.P, dictionary.PropID(pidx), x.row, &nb) ||
		!bindTerm(p.O, o, x.row, &nb) {
		return true // mismatch: keep walking
	}
	return x.run(steps, i+1, nb, done)
}

// bindTerm unifies one term with a value: a constant must equal it, a
// bound variable must agree with its binding, and a free variable takes
// the value and joins the mask.
func bindTerm(t Term, v uint64, row []uint64, nb *uint64) bool {
	if !t.IsVar {
		return t.ID == v
	}
	if *nb&(1<<uint(t.Var)) != 0 {
		return row[t.Var] == v
	}
	row[t.Var] = v
	*nb |= 1 << uint(t.Var)
	return true
}

// runFrom locates the run [lo, hi) of key k in a key-sorted flat pair
// list, resuming from the cursor when k is not less than the previous
// probe key — the sort-merge case, where the run is found by galloping
// forward — and falling back to a full binary search when the key moves
// backward. The cursor is updated to the located run.
func runFrom(pairs []uint64, k uint64, cur *cursorPos) (lo, hi int) {
	n := len(pairs) / 2
	from := 0
	if cur.valid && k >= cur.key {
		from = cur.pos
	}
	lo = store.GallopLowerBound(pairs, n, from, k)
	hi = lo
	for hi < n && pairs[2*hi] == k {
		hi++
	}
	cur.key, cur.pos, cur.valid = k, lo, true
	return lo, hi
}

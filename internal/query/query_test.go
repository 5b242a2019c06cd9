package query

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"inferray/internal/dictionary"
	"inferray/internal/store"
)

// fixture builds a small store:
//
//	table 0 (p): (1,2) (1,3) (2,3)
//	table 1 (q): (2,4) (3,4)
func fixture() *Engine {
	st := store.New(2)
	st.Ensure(0).AppendPairs([]uint64{1, 2, 1, 3, 2, 3})
	st.Ensure(1).AppendPairs([]uint64{2, 4, 3, 4})
	st.Normalize()
	return &Engine{St: st}
}

func pid(i int) uint64 { return dictionary.PropID(i) }

func collect(t *testing.T, e *Engine, patterns []Pattern, nVars int) [][]uint64 {
	t.Helper()
	var rows [][]uint64
	err := e.Solve(patterns, nVars, func(row []uint64) bool {
		rows = append(rows, append([]uint64(nil), row...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
	return rows
}

func TestSinglePatternScans(t *testing.T) {
	e := fixture()
	cases := []struct {
		name    string
		pattern Pattern
		nVars   int
		want    [][]uint64
	}{
		{"table-scan", Pattern{Var(0), Const(pid(0)), Var(1)}, 2,
			[][]uint64{{1, 2}, {1, 3}, {2, 3}}},
		{"subject-run", Pattern{Const(1), Const(pid(0)), Var(0)}, 1,
			[][]uint64{{2}, {3}}},
		{"object-run", Pattern{Var(0), Const(pid(0)), Const(3)}, 1,
			[][]uint64{{1}, {2}}},
		{"existence", Pattern{Const(2), Const(pid(0)), Const(3)}, 0,
			[][]uint64{nil}},
		{"absent", Pattern{Const(9), Const(pid(0)), Var(0)}, 1, nil},
		// Property IDs descend from 2³², so pid(1) < pid(0) numerically.
		{"var-predicate", Pattern{Const(2), Var(0), Var(1)}, 2,
			[][]uint64{{pid(1), 4}, {pid(0), 3}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := collect(t, e, []Pattern{c.pattern}, c.nVars)
			want := c.want
			if len(got) == 0 && len(want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("got %v want %v", got, want)
			}
		})
	}
}

func TestJoinAcrossTables(t *testing.T) {
	e := fixture()
	// ?x p ?y . ?y q ?z  → (1,2,4) (1,3,4) (2,3,4)
	rows := collect(t, e, []Pattern{
		{Var(0), Const(pid(0)), Var(1)},
		{Var(1), Const(pid(1)), Var(2)},
	}, 3)
	want := [][]uint64{{1, 2, 4}, {1, 3, 4}, {2, 3, 4}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("got %v want %v", rows, want)
	}
}

func TestSharedVariableWithinPattern(t *testing.T) {
	st := store.New(1)
	st.Ensure(0).AppendPairs([]uint64{1, 1, 1, 2, 3, 3})
	st.Normalize()
	e := &Engine{St: st}
	rows := collect(t, e, []Pattern{{Var(0), Const(pid(0)), Var(0)}}, 1)
	want := [][]uint64{{1}, {3}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("self-loop query: got %v want %v", rows, want)
	}
}

func TestEarlyStop(t *testing.T) {
	e := fixture()
	n := 0
	err := e.Solve([]Pattern{{Var(0), Const(pid(0)), Var(1)}}, 2, func([]uint64) bool {
		n++
		return false
	})
	if err != nil || n != 1 {
		t.Fatalf("early stop delivered %d rows (err %v)", n, err)
	}
}

// TestStopEndsARowlessWalk: a join whose every candidate fails — no row
// ever reaches the callback — polls Stop once per stopEvery candidates,
// at any depth, and ends as soon as Stop reports an error, which Solve
// and SolveLeftJoin return.
func TestStopEndsARowlessWalk(t *testing.T) {
	const n = 10 * stopEvery
	st := store.New(2)
	for i := uint64(1); i <= n; i++ {
		st.Add(0, i, n+i) // step 1's candidates ...
		st.Add(1, i, i)   // ... all rejected by step 2: its subjects are never objects of table 0
	}
	st.Normalize()
	join := []Pattern{{Var(0), Const(pid(0)), Var(1)}, {Var(1), Const(pid(1)), Var(2)}}
	stopped := errors.New("stop")
	for _, leftJoin := range []bool{false, true} {
		polls := 0
		e := &Engine{St: st, Stop: func() error {
			if polls++; polls == 3 {
				return stopped
			}
			return nil
		}}
		rows := 0
		var err error
		if leftJoin {
			err = e.SolveLeftJoin(join, nil, 3, nil, func([]uint64, uint64) bool { rows++; return true })
		} else {
			err = e.Solve(join, 3, func([]uint64) bool { rows++; return true })
		}
		if err != stopped || rows != 0 || polls != 3 {
			t.Errorf("leftJoin=%t: err %v after %d polls and %d rows; want the stop error at poll 3, no rows", leftJoin, err, polls, rows)
		}
	}
	// Unarmed, the same walk visits every candidate and finds nothing.
	if rows := len(collect(t, &Engine{St: st}, join, 3)); rows != 0 {
		t.Fatalf("%d rows from a rowless join", rows)
	}
}

func TestValidation(t *testing.T) {
	e := fixture()
	if err := e.Solve([]Pattern{{Var(5), Const(pid(0)), Var(0)}}, 2, nil); err == nil {
		t.Error("out-of-range variable accepted")
	}
	if err := e.Solve(nil, 100, func([]uint64) bool { return true }); err == nil {
		t.Error("absurd nVars accepted")
	}
}

// count returns the number of solutions Solve finds for the pattern list.
func count(e *Engine, patterns []Pattern, nVars int) (int, error) {
	n := 0
	err := e.Solve(patterns, nVars, func([]uint64) bool {
		n++
		return true
	})
	return n, err
}

func TestCount(t *testing.T) {
	e := fixture()
	n, err := count(e, []Pattern{{Var(0), Var(1), Var(2)}}, 3)
	if err != nil || n != 5 {
		t.Fatalf("count = %d (err %v), want 5", n, err)
	}
}

// TestSolveQuick compares both engines — the planner (Solve) and the
// greedy baseline (SolveGreedy) — against a brute-force evaluator on
// random stores and random 1–4 pattern queries. This is the planner's
// equivalence guarantee: whatever order and access paths it picks, the
// solution set must match the reference.
func TestSolveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nProps := 1 + rng.Intn(3)
		st := store.New(nProps)
		var all [][3]uint64
		for i := 0; i < rng.Intn(40); i++ {
			p := rng.Intn(nProps)
			s := uint64(1 + rng.Intn(6))
			o := uint64(1 + rng.Intn(6))
			st.Add(p, s, o)
			all = append(all, [3]uint64{s, pid(p), o})
		}
		st.Normalize()
		// Dedup the oracle facts.
		seen := map[[3]uint64]bool{}
		var facts [][3]uint64
		for _, f := range all {
			if !seen[f] {
				seen[f] = true
				facts = append(facts, f)
			}
		}
		e := &Engine{St: st}

		nVars := 1 + rng.Intn(4)
		nPats := 1 + rng.Intn(4)
		patterns := make([]Pattern, nPats)
		term := func() Term {
			if rng.Intn(2) == 0 {
				return Var(rng.Intn(nVars))
			}
			return Const(uint64(1 + rng.Intn(6)))
		}
		pterm := func() Term {
			if rng.Intn(3) == 0 {
				return Var(rng.Intn(nVars))
			}
			return Const(pid(rng.Intn(nProps)))
		}
		for i := range patterns {
			patterns[i] = Pattern{S: term(), P: pterm(), O: term()}
		}

		want := bruteForce(facts, patterns, nVars)
		for _, solve := range []func([]Pattern, int, func([]uint64) bool) error{
			e.Solve, e.SolveGreedy,
		} {
			got := map[string]bool{}
			if err := solve(patterns, nVars, func(row []uint64) bool {
				got[rowKey(row)] = true
				return true
			}); err != nil {
				return false
			}
			if len(got) != len(want) {
				return false
			}
			for k := range want {
				if !got[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The planner must start a skewed chain join at the small table even
// when the query text lists the big one first — the case the greedy
// access-class ranking cannot see (all three patterns share the same
// class).
func TestPlanOrdersBySelectivity(t *testing.T) {
	st := store.New(3)
	big := st.Ensure(0)
	for i := uint64(0); i < 1000; i++ {
		big.Append(i, i+1)
	}
	med := st.Ensure(1)
	for i := uint64(0); i < 100; i++ {
		med.Append(i, i+1)
	}
	st.Ensure(2).AppendPairs([]uint64{1, 2, 3, 4})
	st.Normalize()
	e := &Engine{St: st}

	patterns := []Pattern{
		{Var(0), Const(pid(0)), Var(1)}, // 1000 pairs
		{Var(1), Const(pid(1)), Var(2)}, // 100 pairs
		{Var(2), Const(pid(2)), Var(3)}, // 2 pairs
	}
	order := e.Plan(patterns)
	if order[0] != 2 {
		t.Fatalf("plan starts at pattern %d, want the tiny table (2); order=%v", order[0], order)
	}
	// And the planned execution matches the greedy result.
	planned := collect(t, e, patterns, 4)
	var greedy [][]uint64
	if err := e.SolveGreedy(patterns, 4, func(row []uint64) bool {
		greedy = append(greedy, append([]uint64(nil), row...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(greedy, func(i, j int) bool {
		for k := range greedy[i] {
			if greedy[i][k] != greedy[j][k] {
				return greedy[i][k] < greedy[j][k]
			}
		}
		return false
	})
	if !reflect.DeepEqual(planned, greedy) {
		t.Fatalf("planned %v != greedy %v", planned, greedy)
	}
}

// An empty or absent property table must be planned first: it proves
// the result empty without touching the other patterns.
func TestPlanPutsEmptyTableFirst(t *testing.T) {
	st := store.New(2)
	tab := st.Ensure(0)
	for i := uint64(0); i < 50; i++ {
		tab.Append(i, i+1)
	}
	st.Normalize()
	e := &Engine{St: st}
	patterns := []Pattern{
		{Var(0), Const(pid(0)), Var(1)},
		{Var(1), Const(pid(1)), Var(2)}, // table 1 holds nothing
	}
	if order := e.Plan(patterns); order[0] != 1 {
		t.Fatalf("plan order = %v, want empty table first", order)
	}
	n, err := count(e, patterns, 3)
	if err != nil || n != 0 {
		t.Fatalf("count over empty table = %d (err %v)", n, err)
	}
}

// store.GallopLowerBound must agree with the plain lower bound from every
// starting position.
func TestGallopLowerBound(t *testing.T) {
	pairs := []uint64{}
	for _, k := range []uint64{2, 2, 5, 7, 7, 7, 11, 20} {
		pairs = append(pairs, k, k)
	}
	n := len(pairs) / 2
	for from := 0; from <= n; from++ {
		for k := uint64(0); k <= 22; k++ {
			got := store.GallopLowerBound(pairs, n, from, k)
			// Reference: first index >= from with key >= k.
			want := n
			for i := from; i < n; i++ {
				if pairs[2*i] >= k {
					want = i
					break
				}
			}
			if got != want {
				t.Fatalf("gallop(from=%d, k=%d) = %d, want %d", from, k, got, want)
			}
		}
	}
}

// runFrom is a pure optimization: probing keys in any order — repeats,
// forward jumps, backward jumps — must return exactly the same runs as
// binary search.
func TestRunFromCursorAnyOrder(t *testing.T) {
	var tab store.Table
	tab.AppendPairs([]uint64{1, 10, 1, 11, 3, 30, 7, 70, 7, 71, 7, 72, 9, 90})
	tab.Normalize()
	pairs := tab.Pairs()
	var cur cursorPos
	for _, k := range []uint64{1, 1, 3, 9, 2, 7, 7, 0, 9, 4, 1} {
		gotLo, gotHi := runFrom(pairs, k, &cur)
		wantLo, wantHi := tab.SubjectRun(k)
		if gotLo != wantLo || gotHi != wantHi {
			t.Fatalf("runFrom(%d) = [%d,%d), want [%d,%d)", k, gotLo, gotHi, wantLo, wantHi)
		}
	}
}

func rowKey(row []uint64) string {
	b := make([]byte, 0, len(row)*8)
	for _, v := range row {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(v>>s))
		}
	}
	return string(b)
}

// bruteForce enumerates all variable assignments by trying every fact
// for every pattern.
func bruteForce(facts [][3]uint64, patterns []Pattern, nVars int) map[string]bool {
	out := map[string]bool{}
	row := make([]uint64, nVars)
	var rec func(pi int, bound uint64)
	rec = func(pi int, bound uint64) {
		if pi == len(patterns) {
			// Unbound variables default to 0 in both evaluators only if
			// they never occur; the engine leaves them 0 too.
			out[rowKey(row)] = true
			return
		}
		p := patterns[pi]
		for _, f := range facts {
			nb := bound
			save := [3]uint64{}
			ok := true
			match := func(t Term, v uint64, idx int) {
				if !ok {
					return
				}
				if !t.IsVar {
					if t.ID != v {
						ok = false
					}
					return
				}
				if nb&(1<<uint(t.Var)) != 0 {
					if row[t.Var] != v {
						ok = false
					}
					return
				}
				save[idx] = row[t.Var]
				row[t.Var] = v
				nb |= 1 << uint(t.Var)
			}
			prevNb := nb
			match(p.S, f[0], 0)
			match(p.P, f[1], 1)
			match(p.O, f[2], 2)
			if ok {
				rec(pi+1, nb)
			}
			// Restore bindings made by this fact.
			diff := nb &^ prevNb
			terms := []Term{p.S, p.P, p.O}
			vals := save
			for i, tm := range terms {
				if tm.IsVar && diff&(1<<uint(tm.Var)) != 0 {
					row[tm.Var] = vals[i]
					diff &^= 1 << uint(tm.Var)
				}
			}
			nb = prevNb
		}
	}
	rec(0, 0)
	return out
}

// ------------------------------------------------------- left join (OPTIONAL)

// leftJoinRows collects SolveLeftJoin solutions as (row, mask) pairs
// with unbound slots normalized to a sentinel, sorted for comparison.
func leftJoinRows(t *testing.T, e *Engine, req []Pattern, opts []OptionalGroup, nVars int) [][]uint64 {
	t.Helper()
	const unbound = ^uint64(0)
	var rows [][]uint64
	err := e.SolveLeftJoin(req, opts, nVars, nil, func(row []uint64, bound uint64) bool {
		out := make([]uint64, nVars)
		for i := 0; i < nVars; i++ {
			if bound&(1<<uint(i)) != 0 {
				out[i] = row[i]
			} else {
				out[i] = unbound
			}
		}
		rows = append(rows, out)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
	return rows
}

func TestSolveLeftJoinBasic(t *testing.T) {
	const U = ^uint64(0)
	e := fixture() // p: (1,2) (1,3) (2,3); q: (2,4) (3,4)
	// ?x p ?y OPTIONAL { ?y q ?z }: every p pair, extended by q when ?y
	// has a q edge. All three p-objects (2 and 3) have q edges, so all
	// rows extend; subject 1's object 2 and 3 both match.
	rows := leftJoinRows(t, e,
		[]Pattern{{Var(0), Const(pid(0)), Var(1)}},
		[]OptionalGroup{{Patterns: []Pattern{{Var(1), Const(pid(1)), Var(2)}}}},
		3)
	want := [][]uint64{{1, 2, 4}, {1, 3, 4}, {2, 3, 4}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("got %v want %v", rows, want)
	}

	// ?x q ?y OPTIONAL { ?y p ?z }: 4 has no outgoing p edge, so both
	// rows keep ?z unbound — the null row, not a dropped solution.
	rows = leftJoinRows(t, e,
		[]Pattern{{Var(0), Const(pid(1)), Var(1)}},
		[]OptionalGroup{{Patterns: []Pattern{{Var(1), Const(pid(0)), Var(2)}}}},
		3)
	want = [][]uint64{{2, 4, U}, {3, 4, U}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("got %v want %v", rows, want)
	}
}

func TestSolveLeftJoinAcceptReject(t *testing.T) {
	const U = ^uint64(0)
	e := fixture()
	// The accept hook rejects every extension with z != 4... then with
	// any z: rejected extensions degrade to the null row.
	rows := leftJoinRows(t, e,
		[]Pattern{{Var(0), Const(pid(0)), Var(1)}},
		[]OptionalGroup{{
			Patterns: []Pattern{{Var(1), Const(pid(1)), Var(2)}},
			Accept:   func([]uint64, uint64) bool { return false },
		}},
		3)
	want := [][]uint64{{1, 2, U}, {1, 3, U}, {2, 3, U}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("all-rejected: got %v want %v", rows, want)
	}
}

func TestSolveLeftJoinSequentialOptionals(t *testing.T) {
	const U = ^uint64(0)
	e := fixture()
	// Two optionals; the second probes a variable the first binds. For
	// (2,3): first optional binds z=4 (3 q 4), second asks 4 p ?w —
	// nothing, so w stays unbound.
	rows := leftJoinRows(t, e,
		[]Pattern{{Const(2), Const(pid(0)), Var(0)}},
		[]OptionalGroup{
			{Patterns: []Pattern{{Var(0), Const(pid(1)), Var(1)}}},
			{Patterns: []Pattern{{Var(1), Const(pid(0)), Var(2)}}},
		},
		3)
	want := [][]uint64{{3, 4, U}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("got %v want %v", rows, want)
	}
}

func TestSolveLeftJoinEmptyRequired(t *testing.T) {
	// An empty required list is the unit solution: the optional's own
	// matches, or one all-unbound row when it never matches.
	const U = ^uint64(0)
	e := fixture()
	rows := leftJoinRows(t, e, nil,
		[]OptionalGroup{{Patterns: []Pattern{{Var(0), Const(pid(1)), Var(1)}}}}, 2)
	want := [][]uint64{{2, 4}, {3, 4}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("got %v want %v", rows, want)
	}
	rows = leftJoinRows(t, e, nil,
		[]OptionalGroup{{Patterns: []Pattern{{Const(99), Const(pid(1)), Var(0)}}}}, 1)
	want = [][]uint64{{U}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("unit null row: got %v want %v", rows, want)
	}
}

func TestSolveLeftJoinEarlyStop(t *testing.T) {
	e := fixture()
	n := 0
	err := e.SolveLeftJoin(
		[]Pattern{{Var(0), Const(pid(0)), Var(1)}},
		[]OptionalGroup{{Patterns: []Pattern{{Var(1), Const(pid(1)), Var(2)}}}},
		3, nil,
		func([]uint64, uint64) bool { n++; return false })
	if err != nil || n != 1 {
		t.Fatalf("early stop delivered %d rows (err %v)", n, err)
	}
}

// TestSolveLeftJoinQuick compares SolveLeftJoin against a brute-force
// left-join over random stores: random required patterns and one or
// two random optional groups.
func TestSolveLeftJoinQuick(t *testing.T) {
	const U = ^uint64(0)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nProps := 1 + rng.Intn(3)
		st := store.New(nProps)
		seen := map[[3]uint64]bool{}
		var facts [][3]uint64
		for i := 0; i < rng.Intn(30); i++ {
			p := rng.Intn(nProps)
			s := uint64(1 + rng.Intn(5))
			o := uint64(1 + rng.Intn(5))
			st.Add(p, s, o)
			f := [3]uint64{s, pid(p), o}
			if !seen[f] {
				seen[f] = true
				facts = append(facts, f)
			}
		}
		st.Normalize()
		e := &Engine{St: st}

		nVars := 2 + rng.Intn(3)
		term := func() Term {
			if rng.Intn(2) == 0 {
				return Var(rng.Intn(nVars))
			}
			return Const(uint64(1 + rng.Intn(5)))
		}
		pat := func() Pattern {
			return Pattern{S: term(), P: Const(pid(rng.Intn(nProps))), O: term()}
		}
		required := []Pattern{pat()}
		if rng.Intn(2) == 0 {
			required = append(required, pat())
		}
		nOpts := 1 + rng.Intn(2)
		var opts []OptionalGroup
		for i := 0; i < nOpts; i++ {
			opts = append(opts, OptionalGroup{Patterns: []Pattern{pat()}})
		}

		want := bruteForceLeftJoin(facts, required, opts, nVars)
		got := map[string]int{}
		err := e.SolveLeftJoin(required, opts, nVars, nil, func(row []uint64, bound uint64) bool {
			out := make([]uint64, nVars)
			for i := range out {
				if bound&(1<<uint(i)) != 0 {
					out[i] = row[i]
				} else {
					out[i] = U
				}
			}
			got[rowKey(out)]++
			return true
		})
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// bruteForceLeftJoin computes the reference multiset of left-join
// solutions (rows with unbound slots replaced by ^uint64(0)).
func bruteForceLeftJoin(facts [][3]uint64, required []Pattern, opts []OptionalGroup, nVars int) map[string]int {
	const U = ^uint64(0)
	type sol struct {
		row   []uint64
		bound uint64
	}
	// matches enumerates all extensions of one solution by a BGP.
	var matches func(pats []Pattern, s sol) []sol
	matches = func(pats []Pattern, s sol) []sol {
		if len(pats) == 0 {
			return []sol{s}
		}
		var out []sol
		p := pats[0]
		for _, f := range facts {
			row := append([]uint64(nil), s.row...)
			nb := s.bound
			ok := true
			try := func(t Term, v uint64) {
				if !ok {
					return
				}
				if !t.IsVar {
					ok = t.ID == v
					return
				}
				if nb&(1<<uint(t.Var)) != 0 {
					ok = row[t.Var] == v
					return
				}
				row[t.Var] = v
				nb |= 1 << uint(t.Var)
			}
			try(p.S, f[0])
			try(p.P, f[1])
			try(p.O, f[2])
			if ok {
				out = append(out, matches(pats[1:], sol{row, nb})...)
			}
		}
		return out
	}

	sols := matches(required, sol{make([]uint64, nVars), 0})
	for _, og := range opts {
		var next []sol
		for _, s := range sols {
			ext := matches(og.Patterns, s)
			if len(ext) == 0 {
				next = append(next, s)
				continue
			}
			next = append(next, ext...)
		}
		sols = next
	}
	out := map[string]int{}
	for _, s := range sols {
		row := make([]uint64, nVars)
		for i := range row {
			if s.bound&(1<<uint(i)) != 0 {
				row[i] = s.row[i]
			} else {
				row[i] = U
			}
		}
		out[rowKey(row)]++
	}
	return out
}

// Seed bindings join before the left join: a seeded slot with no
// matching optional extension must survive as the null row, and seeded
// slots always appear in the delivered bound mask.
func TestSolveLeftJoinSeeded(t *testing.T) {
	const U = ^uint64(0)
	e := fixture() // p: (1,2) (1,3) (2,3); q: (2,4) (3,4)

	// Seed ?x=1 over "?x p ?y": only subject 1's pairs.
	var rows [][]uint64
	err := e.SolveLeftJoin(
		[]Pattern{{Var(0), Const(pid(0)), Var(1)}}, nil, 2,
		[]Binding{{Slot: 0, ID: 1}},
		func(row []uint64, bound uint64) bool {
			out := []uint64{U, U}
			for i := 0; i < 2; i++ {
				if bound&(1<<uint(i)) != 0 {
					out[i] = row[i]
				}
			}
			rows = append(rows, out)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][1] < rows[j][1] })
	want := [][]uint64{{1, 2}, {1, 3}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("seeded required: got %v want %v", rows, want)
	}

	// Seed ?x=5 with an empty required list and an optional that cannot
	// match 5: the unit solution passes through with the seed bound and
	// the optional's variable unbound — the VALUES-before-OPTIONAL case.
	rows = nil
	err = e.SolveLeftJoin(nil,
		[]OptionalGroup{{Patterns: []Pattern{{Var(0), Const(pid(0)), Var(1)}}}}, 2,
		[]Binding{{Slot: 0, ID: 5}},
		func(row []uint64, bound uint64) bool {
			out := []uint64{U, U}
			for i := 0; i < 2; i++ {
				if bound&(1<<uint(i)) != 0 {
					out[i] = row[i]
				}
			}
			rows = append(rows, out)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	want = [][]uint64{{5, U}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("seeded null row: got %v want %v", rows, want)
	}

	if err := e.SolveLeftJoin(nil, nil, 1, []Binding{{Slot: 3, ID: 1}}, func([]uint64, uint64) bool { return true }); err == nil {
		t.Fatal("out-of-range seed slot accepted")
	}
}

package inferray

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"inferray/internal/query"
	"inferray/internal/snapshot"
	"inferray/internal/sparql"
)

// Query evaluates a basic graph pattern — a conjunction of triple
// patterns — over the store (run Materialize first to query the
// closure). Pattern terms starting with '?' are variables; anything
// else is an N-Triples surface form. Each solution binds every variable
// name to a surface form.
//
//	rows, err := r.Query(
//	    [3]string{"?prof", "<worksFor>", "?dept"},
//	    [3]string{"?dept", "<subOrganizationOf>", "<Univ0>"},
//	)
func (r *Reasoner) Query(patterns ...[3]string) ([]map[string]string, error) {
	var rows []map[string]string
	err := r.QueryFunc(func(row map[string]string) bool {
		rows = append(rows, row)
		return true
	}, patterns...)
	return rows, err
}

// anonPrefix marks the internal names synthesized for anonymous ("?")
// pattern variables. It starts with a NUL byte, which no "?name" pattern
// term can spell, so an anonymous slot can never collide with — or
// shadow — a real user variable, and the prefix cheaply identifies the
// slots to withhold from result rows.
const anonPrefix = "\x00anon"

// QueryFunc is the streaming form of Query; fn may return false to
// stop. The reasoner's read lock is held for the whole enumeration, so
// fn must not call back into the Reasoner. A bare "?" term is an
// anonymous variable: it matches anything, joins with nothing, and does
// not appear in the delivered rows.
func (r *Reasoner) QueryFunc(fn func(row map[string]string) bool, patterns ...[3]string) error {
	if len(patterns) == 0 {
		return fmt.Errorf("inferray: empty pattern list")
	}
	r.mu.RLock()
	defer r.mu.RUnlock()

	// A bare "?" gets a private name per occurrence; from there the
	// patterns compile like any other read's.
	pats := make([][3]string, len(patterns))
	anon := 0
	for i, pat := range patterns {
		for pos, raw := range pat {
			if raw == "?" {
				raw = fmt.Sprintf("?%s%d", anonPrefix, anon)
				anon++
			}
			pats[i][pos] = raw
		}
	}
	varSlots := map[string]int{}
	varNames := registerVars(pats, varSlots, nil)
	if len(varNames) > 64 {
		return fmt.Errorf("inferray: more than 64 distinct variables")
	}
	qp, ok := r.encodePatterns(pats, varSlots)
	if !ok {
		return nil // a constant not in the dictionary can match nothing
	}

	named := 0
	for _, name := range varNames {
		if !strings.HasPrefix(name, anonPrefix) {
			named++
		}
	}

	return r.queryEngine().Solve(qp, len(varNames), func(row []uint64) bool {
		out := make(map[string]string, named)
		for i, name := range varNames {
			if strings.HasPrefix(name, anonPrefix) {
				continue
			}
			out[name] = r.engine.Dict.MustDecode(row[i])
		}
		return fn(out)
	})
}

// QueryCount returns the number of solutions without materializing them.
func (r *Reasoner) QueryCount(patterns ...[3]string) (int, error) {
	n := 0
	err := r.QueryFunc(func(map[string]string) bool {
		n++
		return true
	}, patterns...)
	return n, err
}

// SaveSnapshot writes the dictionary and store (closure, after
// Materialize) as a compact binary image — the paper's off-line
// materialization workflow: infer once, persist, serve without the
// engine. It takes the exclusive lock (the store is normalized in
// place), so it waits out concurrent reads and materializations.
func (r *Reasoner) SaveSnapshot(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.engine.Main.Normalize()
	return snapshot.Write(w, r.engine.Dict, r.engine.Main, r.engine.HierView() != nil, r.engine.AssertedStore())
}

// LoadSnapshot restores a reasoner from a snapshot image. The restored
// store is treated as an already-materialized closure (SaveSnapshot is
// documented to persist the closure, and durability images are always
// written post-materialization): it can be queried immediately with no
// inference run, and triples added afterwards extend it incrementally
// on the next Materialize — restoring and extending never re-derives
// the image's own closure. Consequently an image saved before any
// Materialize ran (unusual; SaveSnapshot is meant for closures) stays
// un-inferred: later deltas extend it incrementally without deriving
// the facts the skipped initial run would have produced.
func LoadSnapshot(src io.Reader, opts ...Option) (*Reasoner, error) {
	d, st, encoded, asserted, err := snapshot.Read(src)
	if err != nil {
		return nil, err
	}
	r := New(opts...)
	// The bare stream carries no fragment and no store generation.
	if err := r.install("snapshot", d, st, asserted, snapshot.Meta{HierarchyEncoded: encoded}); err != nil {
		return nil, err
	}
	return r, nil
}

// SaveImage writes the closure as a durable image file: the
// SaveSnapshot stream wrapped with metadata (rule fragment, triple
// count, creation time) and a whole-file CRC-32C, written atomically
// (temp file + fsync + rename) — a failed or interrupted save never
// destroys an existing image at path. This is the persistence step of
// the offline-materialize/online-serve workflow; LoadImage restores it.
func (r *Reasoner) SaveImage(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.engine.Main.Normalize()
	return snapshot.WriteFile(path, r.engine.Dict, r.engine.Main, r.engine.AssertedStore(), snapshot.Meta{
		CreatedUnix:      time.Now().Unix(),
		Triples:          uint64(r.engine.StoredSize()),
		Fragment:         r.engine.Fragment().String(),
		HierarchyEncoded: r.engine.HierView() != nil,
		StoreGeneration:  r.gen.Load(),
	})
}

// LoadImage restores a reasoner from an image file written by SaveImage
// (or by a durability checkpoint). The whole-file CRC is verified
// before anything is trusted, and the image's rule fragment must match
// the configured one — a closure is only a closure under its own
// ruleset. Like LoadSnapshot, the restored store is installed as an
// already-materialized closure.
func LoadImage(path string, opts ...Option) (*Reasoner, error) {
	d, st, asserted, meta, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := New(opts...)
	if err := r.install("image "+path, d, st, asserted, meta); err != nil {
		return nil, err
	}
	return r, nil
}

// Select parses and evaluates a SPARQL SELECT query — the dialect
// documented in docs/SPARQL.md: PREFIX, SELECT (DISTINCT) with a
// projection list (plain variables and aggregates) or *, a basic graph
// pattern (';'/',' lists included) or a UNION of groups, OPTIONAL
// blocks, BIND, inline VALUES, FILTER (comparisons, regex, bound),
// GROUP BY with COUNT/SUM/MIN/MAX/AVG, ORDER BY, LIMIT, and OFFSET —
// against the store (run Materialize first to query the closure). Each
// solution maps the projected variable names to term surface forms;
// variables left unbound by a UNION branch or an unmatched OPTIONAL
// are absent from that row. ASK queries are rejected here; evaluate
// them with Ask.
func (r *Reasoner) Select(queryText string) ([]map[string]string, error) {
	_, rows, err := r.SelectWithVars(queryText)
	return rows, err
}

// SelectWithVars evaluates a SPARQL SELECT like Select and also returns
// the projection — the SELECT list, or for SELECT * every variable in
// order of first appearance in the pattern. Result serializers (the
// HTTP endpoint's results-JSON head, tabular output) need the ordered
// variable list, which the unordered row maps cannot supply.
func (r *Reasoner) SelectWithVars(queryText string) (vars []string, rows []map[string]string, err error) {
	res, err := r.ExecFunc(queryText, 0, nil, func(row map[string]string) bool {
		rows = append(rows, row)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	if res.Ask {
		return nil, nil, fmt.Errorf("inferray: query is an ASK query (use Ask)")
	}
	return res.Vars, rows, nil
}

// Ask parses and evaluates a SPARQL ASK query: whether the WHERE
// clause (with its FILTERs) has at least one solution. Enumeration
// stops at the first match. SELECT queries are rejected here; evaluate
// them with Select.
func (r *Reasoner) Ask(queryText string) (bool, error) {
	res, err := r.ExecFunc(queryText, 0, nil, nil)
	if err != nil {
		return false, err
	}
	if !res.Ask {
		return false, fmt.Errorf("inferray: query is a SELECT query (use Select)")
	}
	return res.Truth, nil
}

// QueryResult is the head of an executed SPARQL query (see ExecFunc):
// which form it was, the ASK answer, and the SELECT projection.
type QueryResult struct {
	// Ask reports that the query was an ASK; Truth is then its answer
	// and Vars is nil.
	Ask   bool
	Truth bool
	// Vars is the SELECT projection in order — the SELECT list, or for
	// SELECT * every variable in order of first appearance.
	Vars []string
	// Generation is the store generation (Reasoner.Generation) the
	// evaluation ran at, captured under the read lock it held — every
	// mutation bumps the generation under the write lock, so the whole
	// result was computed against exactly this generation's closure.
	// That exactness is the query cache's correctness anchor: a result
	// stored under its Generation can never be stale for that key.
	Generation uint64
}

// ExecFunc is the streaming core under Select, SelectWithVars, and Ask:
// it parses queryText (SELECT or ASK), plans and evaluates it, and
// streams SELECT solutions through the solution-modifier pipeline
// (per-group patterns ⋈ VALUES → OPTIONAL → BIND → FILTER, then
// aggregation → projection → DISTINCT → ORDER BY → OFFSET → LIMIT).
//
// For a SELECT query, onHead (when non-nil) is invoked exactly once
// with the ordered projection before any row, and onRow once per
// delivered solution; onRow may return false to stop early. Rows are
// partial bindings: a variable an OPTIONAL block or a UNION branch
// left unbound is absent from its row map. A query with ORDER BY
// buffers internally before delivery — a bounded top-(OFFSET+LIMIT)
// heap when an effective limit applies and DISTINCT is off, a full
// sort otherwise; aggregate queries buffer their groups. Every other
// query streams. maxRows > 0 caps delivered rows on top of the query's
// own LIMIT (the HTTP endpoint's limit parameter) and bounds the ORDER
// BY heap the same way. For an ASK query neither callback runs; the
// answer is in QueryResult.Truth.
//
// The reasoner's read lock is held for the whole evaluation, so the
// callbacks must not call back into the Reasoner. Parse failures are
// returned as *sparql.ParseError values carrying the line and column of
// the offending token.
func (r *Reasoner) ExecFunc(queryText string, maxRows int, onHead func(vars []string), onRow func(row map[string]string) bool) (QueryResult, error) {
	return r.ExecFuncCtx(context.Background(), queryText, maxRows, onHead, onRow)
}

// ExecFuncCtx is ExecFunc with a caller-supplied context. The context
// carries request-scoped metadata — a request ID installed with
// ContextWithRequestID is stamped into the slow-query record, which is
// how the HTTP server's logs join query text to access-log lines — and
// a best-effort deadline: a cancelable context is polled once before
// evaluation and every 256 delivered solutions, and a tripped deadline
// or cancellation aborts the enumeration and returns the context's
// error (the HTTP server maps it to 504). The check rides the row
// stream, so a query that scans long without producing rows is only
// interrupted at its next row; contexts without a Done channel
// (context.Background) cost nothing.
func (r *Reasoner) ExecFuncCtx(ctx context.Context, queryText string, maxRows int, onHead func(vars []string), onRow func(row map[string]string) bool) (QueryResult, error) {
	start := time.Now()
	q, err := sparql.ParseQuery(queryText)
	if err != nil {
		return QueryResult{}, err
	}

	// Global variable namespace across UNION branches, in order of
	// first appearance: triple-pattern variables (required and
	// OPTIONAL), BIND targets, and VALUES variables.
	varSlots := map[string]int{}
	var varNames []string
	slotOf := func(name string) {
		if _, ok := varSlots[name]; !ok {
			varSlots[name] = len(varNames)
			varNames = append(varNames, name)
		}
	}
	for _, g := range q.Groups {
		varNames = registerVars(g.Patterns, varSlots, varNames)
		for _, o := range g.Optionals {
			varNames = registerVars(o.Patterns, varSlots, varNames)
		}
		for _, b := range g.Binds {
			slotOf(b.Var)
		}
		for _, v := range g.Values {
			for _, name := range v.Vars {
				slotOf(name)
			}
		}
	}
	if len(varNames) > 64 {
		return QueryResult{}, fmt.Errorf("inferray: more than 64 distinct variables")
	}

	aggregating := q.HasAggregates() || len(q.GroupBy) > 0

	res := QueryResult{}
	switch {
	case q.Form == sparql.FormAsk:
		res.Ask = true
	case aggregating:
		// The parser already enforced the grouping rules that need only
		// the query text (plain projections covered by GROUP BY, no
		// SELECT *, alias collisions); here the keys and aggregate
		// arguments must additionally resolve to WHERE-clause variables.
		for _, v := range q.GroupBy {
			if _, ok := varSlots[v]; !ok {
				return QueryResult{}, fmt.Errorf("inferray: GROUP BY variable ?%s does not appear in the WHERE pattern", v)
			}
		}
		for _, it := range q.Items {
			if it.Agg != nil && !it.Agg.Star {
				if _, ok := varSlots[it.Agg.Var]; !ok {
					return QueryResult{}, fmt.Errorf("inferray: aggregate variable ?%s does not appear in the WHERE pattern", it.Agg.Var)
				}
			}
		}
		res.Vars = q.Vars
		// Post-aggregation rows carry only the GROUP BY keys and the
		// projected aggregates, so only those are orderable.
		orderable := map[string]bool{}
		for _, v := range q.GroupBy {
			orderable[v] = true
		}
		for _, it := range q.Items {
			orderable[it.Name] = true
		}
		for _, k := range q.OrderBy {
			if !orderable[k.Var] {
				return QueryResult{}, fmt.Errorf("inferray: ORDER BY variable ?%s is neither a GROUP BY key nor a projected aggregate", k.Var)
			}
		}
	default:
		if len(q.Vars) > 0 {
			// A projected variable that never occurs in the WHERE clause
			// is almost always a typo; reject it instead of silently
			// emitting rows with the key missing. Variables bound only
			// inside OPTIONAL blocks or single UNION branches do occur —
			// they are merely unbound in some rows.
			for _, v := range q.Vars {
				if _, ok := varSlots[v]; !ok {
					return QueryResult{}, fmt.Errorf("inferray: SELECT variable ?%s does not appear in the WHERE pattern", v)
				}
			}
			res.Vars = q.Vars
		} else {
			res.Vars = varNames
		}
		for _, k := range q.OrderBy {
			if _, ok := varSlots[k.Var]; !ok {
				return QueryResult{}, fmt.Errorf("inferray: ORDER BY variable ?%s does not appear in the WHERE pattern", k.Var)
			}
		}
	}

	// Effective row cap: the query's LIMIT tightened by the caller's.
	limit := -1
	if q.HasLimit {
		limit = q.Limit
	}
	if maxRows > 0 && (limit < 0 || maxRows < limit) {
		limit = maxRows
	}

	pl := &rowPipeline{
		project:  len(q.Vars) > 0,
		vars:     res.Vars,
		distinct: q.Distinct,
		offset:   q.Offset,
		limit:    limit,
		out:      onRow,
	}
	if pl.distinct {
		pl.seen = make(map[string]bool)
	}

	var ob *orderBuffer
	if len(q.OrderBy) > 0 && !res.Ask {
		// Bounded buffering: with an effective limit, only the
		// OFFSET+LIMIT smallest rows can ever be delivered, so the
		// buffer is a top-k heap. DISTINCT falls back to the full sort —
		// deduplication happens on the projected row after sorting, so
		// a bounded buffer could evict rows that deduplication would
		// have promoted into the window.
		k := -1
		if limit >= 0 && !q.Distinct {
			k = q.Offset + limit
		}
		ob = newOrderBuffer(q.OrderBy, k)
	}

	var agg *aggregator
	if aggregating && !res.Ask {
		agg = newAggregator(q)
	}

	// feed delivers one post-WHERE row into the modifier tail.
	feed := func(row map[string]string) bool {
		if ob != nil {
			ob.push(row)
			return true
		}
		return pl.push(row)
	}
	sink := func(row map[string]string) bool {
		if res.Ask {
			res.Truth = true
			return false // one witness is enough
		}
		if agg != nil {
			agg.add(row)
			return true // every solution feeds its group
		}
		return feed(row)
	}

	r.mu.RLock()
	defer r.mu.RUnlock()
	// Captured under the read lock: mutations bump the generation under
	// the write lock, so it cannot change for the rest of the evaluation.
	res.Generation = r.gen.Load()

	// Deadline/cancellation polling, armed only for cancelable contexts
	// (Done() is nil for context.Background(), so the library paths pay
	// nothing — not even an allocation, which the BGP alloc budget test
	// would notice). The counter check is a mask, not a ticker.
	var ctxErr error
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		inner := sink
		polled := 0
		sink = func(row map[string]string) bool {
			polled++
			if polled&255 == 0 {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return false
				}
			}
			return inner(row)
		}
	}

	if onHead != nil && !res.Ask {
		head := res.Vars
		if head == nil {
			head = []string{}
		}
		onHead(head)
	}

	for _, g := range q.Groups {
		if !r.evalGroup(g, varSlots, len(varNames), varNames, sink) {
			break
		}
	}

	if ctxErr != nil {
		// Canceled mid-enumeration: the buffered modifiers hold a partial
		// solution set, so flushing them would deliver wrong rows.
		return res, ctxErr
	}
	if agg != nil {
		agg.flush(feed)
	}
	if ob != nil {
		ob.flush(pl.push)
	}
	r.recordQueryLocked(ctx, queryText, q, varSlots, pl.sent, time.Since(start))
	return res, nil
}

// evalGroup evaluates one UNION branch in SPARQL's group order: the
// VALUES data joins the required graph pattern first (each combination
// of the blocks' rows seeds one engine run), the OPTIONAL blocks
// left-join the seeded solutions, each decoded row then takes the
// branch's BINDs and FILTERs, and survivors go to sink. Returns false
// when sink stopped the enumeration (later branches must not run).
func (r *Reasoner) evalGroup(g sparql.Group, varSlots map[string]int, nVars int, varNames []string, sink func(map[string]string) bool) bool {
	required, ok := r.encodePatterns(g.Patterns, varSlots)
	if !ok {
		return true // unknown constant: branch yields nothing
	}
	// Everything seed-independent is computed once, not per VALUES
	// combination: the encoded OPTIONAL blocks (an unknown constant
	// makes a block dead for every combination) and the BIND lookup
	// table the optional filters resolve targets from.
	enc := groupEncoding{required: required}
	for _, og := range g.Optionals {
		pats, ok := r.encodePatterns(og.Patterns, varSlots)
		if !ok {
			continue // dead OPTIONAL: never matches, its variables stay unbound
		}
		enc.optionals = append(enc.optionals, encodedOptional{raw: og, patterns: pats})
	}
	if len(g.Binds) > 0 {
		enc.bindExpr = make(map[string]sparql.Expr, len(g.Binds))
		for _, b := range g.Binds {
			enc.bindExpr[b.Var] = b.Expr
		}
	}
	return forEachValuesRow(g.Values, 0, map[string]string{}, func(vals map[string]string) bool {
		return r.evalSeeded(g, vals, &enc, varSlots, nVars, varNames, sink)
	})
}

// groupEncoding is one UNION branch's seed-independent compiled state.
type groupEncoding struct {
	required  []query.Pattern
	optionals []encodedOptional
	bindExpr  map[string]sparql.Expr
}

// encodedOptional pairs an OPTIONAL block with its engine patterns.
type encodedOptional struct {
	raw      sparql.Optional
	patterns []query.Pattern
}

// registerVars gives every variable of the patterns that varSlots does
// not know yet the next slot, in order of first appearance, and returns
// varNames extended by them.
func registerVars(pats [][3]string, varSlots map[string]int, varNames []string) []string {
	for _, pat := range pats {
		for _, t := range pat {
			if !strings.HasPrefix(t, "?") {
				continue
			}
			if _, ok := varSlots[t[1:]]; !ok {
				varSlots[t[1:]] = len(varNames)
				varNames = append(varNames, t[1:])
			}
		}
	}
	return varNames
}

// encodePatterns is the one surface-pattern compiler — Select/Ask
// groups, Query/QueryFunc and DELETE WHERE all go through it. It
// translates patterns to engine terms over the slots varSlots assigns;
// ok is false when a constant is not in the dictionary (it can match
// nothing). The caller holds r.mu.
func (r *Reasoner) encodePatterns(pats [][3]string, varSlots map[string]int) ([]query.Pattern, bool) {
	out := make([]query.Pattern, len(pats))
	for i, pat := range pats {
		var qp query.Pattern
		for pos, raw := range pat {
			var term query.Term
			if strings.HasPrefix(raw, "?") {
				term = query.Var(varSlots[raw[1:]])
			} else {
				id, ok := r.engine.Dict.Lookup(raw)
				if !ok {
					return nil, false
				}
				term = query.Const(id)
			}
			switch pos {
			case 0:
				qp.S = term
			case 1:
				qp.P = term
			case 2:
				qp.O = term
			}
		}
		out[i] = qp
	}
	return out, true
}

// forEachValuesRow enumerates every cross-block-compatible combination
// of the VALUES blocks' rows (one empty combination when there are no
// blocks). UNDEF cells bind nothing; a variable two blocks both bind
// must agree. Returns false when fn stopped the enumeration.
func forEachValuesRow(blocks []sparql.Values, i int, acc map[string]string, fn func(map[string]string) bool) bool {
	if i == len(blocks) {
		return fn(acc)
	}
	vb := blocks[i]
	for _, vrow := range vb.Rows {
		merged := acc
		compatible, cloned := true, false
		for k, name := range vb.Vars {
			term := vrow[k]
			if term == "" {
				continue // UNDEF
			}
			if cur, ok := merged[name]; ok {
				if cur != term {
					compatible = false
					break
				}
				continue
			}
			if !cloned {
				c := make(map[string]string, len(merged)+len(vb.Vars))
				for k2, v2 := range merged {
					c[k2] = v2
				}
				merged, cloned = c, true
			}
			merged[name] = term
		}
		if !compatible {
			continue
		}
		if !forEachValuesRow(blocks, i+1, merged, fn) {
			return false
		}
	}
	return true
}

// evalSeeded runs one VALUES combination: seed the engine with the
// combination's dictionary-known bindings, left-join the live OPTIONAL
// blocks, decode, overlay dictionary-unknown VALUES cells, and run the
// group tail (BINDs, FILTERs). An unknown VALUES term pinning a
// required-pattern variable proves the combination empty; pinning only
// optional patterns kills just those blocks (their variables stay
// unbound); pinning nothing still appears in the output rows.
func (r *Reasoner) evalSeeded(g sparql.Group, vals map[string]string, enc *groupEncoding, varSlots map[string]int, nVars int, varNames []string, sink func(map[string]string) bool) bool {
	patternVar := func(pats [][3]string, name string) bool {
		for _, pat := range pats {
			for _, t := range pat {
				if strings.HasPrefix(t, "?") && t[1:] == name {
					return true
				}
			}
		}
		return false
	}

	var seed []query.Binding
	var unknown map[string]bool // VALUES vars with no dictionary entry
	for name, term := range vals {
		if id, ok := r.engine.Dict.Lookup(term); ok {
			seed = append(seed, query.Binding{Slot: varSlots[name], ID: id})
			continue
		}
		if patternVar(g.Patterns, name) {
			return true // no stored triple can contain the term
		}
		if unknown == nil {
			unknown = map[string]bool{}
		}
		unknown[name] = true
	}

	// BIND targets are visible to OPTIONAL FILTERs (SPARQL binds them
	// before a later OPTIONAL), resolved on demand over the variables
	// bound at that point of the left join.
	bindExpr := enc.bindExpr

	var opts []query.OptionalGroup
	for _, eo := range enc.optionals {
		dead := false
		for name := range unknown {
			if patternVar(eo.raw.Patterns, name) {
				dead = true // pinned to a term no triple contains
				break
			}
		}
		if dead {
			continue
		}
		opt := query.OptionalGroup{Patterns: eo.patterns}
		if len(eo.raw.Filters) > 0 {
			filters := eo.raw.Filters
			opt.Accept = func(row []uint64, bound uint64) bool {
				var inProgress map[string]bool
				var lookup func(string) (string, bool)
				lookup = func(name string) (string, bool) {
					if slot, ok := varSlots[name]; ok && bound&(1<<uint(slot)) != 0 {
						return r.engine.Dict.MustDecode(row[slot]), true
					}
					if unknown[name] {
						return vals[name], true
					}
					if e, ok := bindExpr[name]; ok && !inProgress[name] {
						if inProgress == nil {
							inProgress = map[string]bool{}
						}
						inProgress[name] = true
						term, okEval := sparql.EvalTerm(e, lookup)
						delete(inProgress, name)
						return term, okEval
					}
					return "", false
				}
				for _, f := range filters {
					if !sparql.Eval(f, lookup) {
						return false
					}
				}
				return true
			}
		}
		opts = append(opts, opt)
	}

	eng := r.queryEngine()
	cont := true
	_ = eng.SolveLeftJoin(enc.required, opts, nVars, seed, func(row []uint64, bound uint64) bool {
		out := make(map[string]string, len(varNames))
		for slot, name := range varNames {
			if bound&(1<<uint(slot)) != 0 {
				out[name] = r.engine.Dict.MustDecode(row[slot])
			}
		}
		for name := range unknown {
			out[name] = vals[name]
		}
		cont = r.finishRow(g, out, sink)
		return cont
	})
	return cont
}

// finishRow runs one decoded solution through the group's tail: BINDs
// in order (an erroring expression leaves its target unbound) and the
// group's FILTERs (the VALUES data already joined upstream, before the
// OPTIONAL blocks).
func (r *Reasoner) finishRow(g sparql.Group, row map[string]string, sink func(map[string]string) bool) bool {
	lookup := mapLookup(row) // reads the map live, so one closure serves the whole tail
	for _, b := range g.Binds {
		if _, ok := row[b.Var]; ok {
			continue // defensive: the parser rejects rebinding targets
		}
		if term, ok := sparql.EvalTerm(b.Expr, lookup); ok {
			row[b.Var] = term
		}
	}
	for _, f := range g.Filters {
		if !sparql.Eval(f, lookup) {
			return true // constraint failed: keep walking
		}
	}
	return sink(row)
}

// mapLookup adapts a row map to the expression evaluator's lookup.
func mapLookup(m map[string]string) func(string) (string, bool) {
	return func(name string) (string, bool) {
		v, ok := m[name]
		return v, ok
	}
}

// rowPipeline applies the solution modifiers after FILTER and
// aggregation: projection, DISTINCT (on the projected row), OFFSET,
// and LIMIT, in SPARQL's order. push returns false once delivery must
// stop (limit reached or the consumer aborted).
type rowPipeline struct {
	project  bool
	vars     []string
	distinct bool
	offset   int
	limit    int // -1 = unlimited
	seen     map[string]bool
	sent     int
	skipped  int
	out      func(map[string]string) bool
}

func (pl *rowPipeline) push(row map[string]string) bool {
	if pl.limit == 0 {
		return false
	}
	if pl.project {
		projected := make(map[string]string, len(pl.vars))
		for _, v := range pl.vars {
			if val, ok := row[v]; ok {
				projected[v] = val
			}
		}
		row = projected
	}
	if pl.distinct {
		key := solutionKey(pl.vars, row)
		if pl.seen[key] {
			return true
		}
		pl.seen[key] = true
	}
	if pl.skipped < pl.offset {
		pl.skipped++
		return true
	}
	if pl.out != nil && !pl.out(row) {
		return false
	}
	pl.sent++
	return pl.limit < 0 || pl.sent < pl.limit
}

// solutionKey serializes the named cells of a row into an unambiguous
// key for DISTINCT and GROUP BY: every bound value is length-prefixed
// and an unbound cell gets its own marker, so no combination of
// missing keys and value contents (including NUL bytes) can collide.
func solutionKey(vars []string, row map[string]string) string {
	var b strings.Builder
	var num [20]byte
	for _, v := range vars {
		if val, ok := row[v]; ok {
			b.WriteByte('B')
			b.Write(strconv.AppendInt(num[:0], int64(len(val)), 10))
			b.WriteByte(':')
			b.WriteString(val)
		} else {
			b.WriteByte('U')
		}
	}
	return b.String()
}

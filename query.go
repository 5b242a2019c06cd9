package inferray

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"slices"
	"strings"
	"time"

	"inferray/internal/dictionary"
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
// shadow — a real user variable, and compile leaves the names carrying
// it out of a SELECT * projection.
const anonPrefix = "\x00anon"

// QueryFunc is the streaming form of Query; fn may return false to
// stop. The reasoner's read lock is held for the whole enumeration, so
// fn must not call back into the Reasoner. A bare "?" term is an
// anonymous variable: it matches anything, joins with nothing, and does
// not appear in the delivered rows.
func (r *Reasoner) QueryFunc(fn func(row map[string]string) bool, patterns ...[3]string) error {
	return r.solveBGP(patterns, mapRows(fn))
}

// QueryCount returns the number of solutions without materializing them.
func (r *Reasoner) QueryCount(patterns ...[3]string) (int, error) {
	n := 0
	err := r.solveBGP(patterns, func(Row) bool {
		n++
		return true
	})
	return n, err
}

// solveBGP runs a pattern list as a one-group SELECT * through the
// stage chain every SPARQL query takes.
func (r *Reasoner) solveBGP(patterns [][3]string, onRow func(Row) bool) error {
	if len(patterns) == 0 {
		return fmt.Errorf("inferray: empty pattern list")
	}
	// A bare "?" gets a private name per occurrence.
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
	pl, err := compile(&sparql.Query{Groups: []sparql.Group{{Patterns: pats}}})
	if err != nil {
		return err
	}
	r.readLock()
	defer r.mu.RUnlock()
	_, _, err = r.runLocked(context.TODO(), pl, 0, nil, onRow)
	return err
}

// SaveSnapshot writes the closure (after Materialize) to w as one
// self-describing image: the dictionary and the stored tables behind a
// header naming the rule fragment, the store generation and the triple
// count, closed by a CRC-32C. It is the paper's off-line materialization
// workflow: infer once, persist, serve without the engine. It only
// reads, under the shared lock like a checkpoint: it waits out a
// materialization, never a query, and a slow writer blocks no reader.
func (r *Reasoner) SaveSnapshot(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return snapshot.Write(w, r.engine.Dict, r.engine.Main, r.imageMetaLocked())
}

// SaveImage writes the same image as SaveSnapshot to a file, atomically
// (temp file + fsync + rename) — a failed or interrupted save never
// destroys an existing image at path. LoadImage restores it.
func (r *Reasoner) SaveImage(path string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return snapshot.WriteFile(path, r.engine.Dict, r.engine.Main, r.imageMetaLocked())
}

// imageMetaLocked is the header of an image of the current state; a
// checkpoint adds its WAL generation. r.mu must be held.
func (r *Reasoner) imageMetaLocked() snapshot.Meta {
	return snapshot.Meta{
		StoreGeneration:  r.gen.Load(),
		CreatedUnix:      time.Now().Unix(),
		Fragment:         r.engine.Fragment().String(),
		HierarchyEncoded: r.engine.HierView() != nil,
	}
}

// LoadSnapshot restores a reasoner from an image written by
// SaveSnapshot, SaveImage or a durability checkpoint. The checksum is
// verified before anything is trusted, and the image's rule fragment
// must match the configured one — a closure is only a closure under its
// own ruleset. The restored store is treated as an already-materialized
// closure at the generation it was saved at: it can be queried
// immediately with no inference run, and triples added afterwards extend
// it incrementally on the next Materialize — restoring and extending
// never re-derives the image's own closure. Consequently an image saved
// before any Materialize ran (unusual; images are meant for closures)
// stays un-inferred: later deltas extend it incrementally without
// deriving the facts the skipped initial run would have produced.
func LoadSnapshot(src io.Reader, opts ...Option) (*Reasoner, error) {
	r := New(opts...)
	if _, err := r.restore("snapshot", src); err != nil {
		return nil, err
	}
	return r, nil
}

// LoadImage is LoadSnapshot over the file at path.
func LoadImage(path string, opts ...Option) (*Reasoner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := New(opts...)
	if _, err := r.restore("image "+path, f); err != nil {
		return nil, err
	}
	return r, nil
}

// restore reads one image from src and installs it — the way in for
// LoadSnapshot, LoadImage and RestoreImage. source names the image in
// errors. It returns the WAL position the image pairs with.
func (r *Reasoner) restore(source string, src io.Reader) (WALPosition, error) {
	d, st, meta, err := snapshot.Read(src)
	if err != nil {
		return WALPosition{}, fmt.Errorf("%s: %w", source, err)
	}
	if err := r.install(source, d, st, meta); err != nil {
		return WALPosition{}, err
	}
	return WALPosition{Generation: meta.Generation}, nil
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
// are absent from that row. ASK queries are rejected here, before
// anything is evaluated; evaluate them with Ask.
func (r *Reasoner) Select(queryText string) ([]map[string]string, error) {
	_, rows, err := r.SelectWithVars(queryText)
	return rows, err
}

// SelectWithVars evaluates a SPARQL SELECT like Select and also returns
// the projection — the SELECT list, or for SELECT * every variable in
// order of first appearance in the pattern. Result serializers (tabular
// output) need the ordered variable list, which the unordered row maps
// cannot supply.
func (r *Reasoner) SelectWithVars(queryText string) (vars []string, rows []map[string]string, err error) {
	res, err := r.exec(context.TODO(), queryText, sparql.FormSelect, 0, nil, mapRows(func(row map[string]string) bool {
		rows = append(rows, row)
		return true
	}))
	if err != nil {
		return nil, nil, err
	}
	return res.Vars, rows, nil
}

// Ask parses and evaluates a SPARQL ASK query: whether the WHERE
// clause (with its FILTERs) has at least one solution. Enumeration
// stops at the first match. SELECT queries are rejected here, before
// anything is evaluated; evaluate them with Select.
func (r *Reasoner) Ask(queryText string) (bool, error) {
	res, err := r.exec(context.TODO(), queryText, sparql.FormAsk, 0, nil, nil)
	return res.Truth, err
}

// QueryResult is the head of an executed SPARQL query (see Exec):
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

// ExecFunc is Exec for callers that want each solution as a map from
// variable name to term surface form: it runs under
// context.Background() and builds one map per delivered row — the only
// place on the read path where a solution becomes a map. Rows are
// partial bindings: a variable an OPTIONAL block or a UNION branch left
// unbound is absent from its row map.
func (r *Reasoner) ExecFunc(queryText string, maxRows int, onHead func(vars []string), onRow func(row map[string]string) bool) (QueryResult, error) {
	return r.Exec(context.Background(), queryText, maxRows, onHead, mapRows(onRow))
}

// mapRows is the one adapter from slot rows to the map-returning public
// API (Query, QueryFunc, Select, SelectWithVars, ExecFunc).
func mapRows(fn func(map[string]string) bool) func(Row) bool {
	if fn == nil {
		return nil
	}
	return func(row Row) bool {
		m := make(map[string]string, len(row.run.vars))
		for i, name := range row.run.vars {
			if term, ok := row.Term(i); ok {
				m[name] = term
			}
		}
		return fn(m)
	}
}

// Exec is the streaming core of the read path: it parses queryText
// (SELECT or ASK), compiles it onto variable slots, and drives every
// solution as one slot row — the pattern engine's ID row plus its bound
// mask — through one stage chain:
//
//	seed (VALUES) → SolveLeftJoin (patterns, OPTIONAL) → BIND → FILTER
//	  → [aggregate] → [order] → DISTINCT / OFFSET / LIMIT → onRow
//
// Terms are decoded only where a stage needs the lexical form (an
// expression's variables, ORDER BY keys, an aggregate's argument) and
// where onRow asks for one.
//
// For a SELECT query, onHead (when non-nil) is invoked exactly once
// with the ordered projection before any row, and onRow once per
// delivered solution; onRow may return false to stop early, and a nil
// onRow just counts. A query with ORDER BY buffers internally before
// delivery — a bounded top-(OFFSET+LIMIT) heap when an effective limit
// applies and DISTINCT is off, a full sort otherwise; aggregate queries
// buffer their groups. Every other query streams. maxRows > 0 caps
// delivered rows on top of the query's own LIMIT (the HTTP endpoint's
// limit parameter) and bounds the ORDER BY heap the same way. For an
// ASK query neither callback runs; the answer is in QueryResult.Truth.
//
// The context carries request-scoped metadata — a request ID installed
// with ContextWithRequestID is stamped into the slow-query record — and
// a deadline: a cancelable context is polled once before evaluation and
// at the head of the chain, every 256 rows the pattern engine produces,
// whether or not a FILTER lets them through. A tripped deadline or
// cancellation aborts the enumeration and returns the context's error
// (the HTTP server maps it to 504); the aborted evaluation is still
// counted and logged. Contexts without a Done channel
// (context.Background) cost nothing.
//
// The reasoner's read lock is held for the whole evaluation, so the
// callbacks must not call back into the Reasoner. Parse failures are
// returned as *sparql.ParseError values carrying the line and column of
// the offending token.
func (r *Reasoner) Exec(ctx context.Context, queryText string, maxRows int, onHead func(vars []string), onRow func(row Row) bool) (QueryResult, error) {
	return r.exec(ctx, queryText, anyForm, maxRows, onHead, onRow)
}

// anyForm is exec's form argument when SELECT and ASK are both welcome.
const anyForm sparql.Form = -1

// exec is Exec restricted to one query form: a query of the other form
// is refused as soon as it is parsed — before the read lock is taken
// and long before a solution is enumerated.
func (r *Reasoner) exec(ctx context.Context, queryText string, form sparql.Form, maxRows int, onHead func([]string), onRow func(Row) bool) (QueryResult, error) {
	start := time.Now()
	q, err := sparql.ParseQuery(queryText)
	if err != nil {
		return QueryResult{}, err
	}
	if form != anyForm && form != q.Form {
		if q.Form == sparql.FormAsk {
			return QueryResult{}, fmt.Errorf("inferray: query is an ASK query (use Ask)")
		}
		return QueryResult{}, fmt.Errorf("inferray: query is a SELECT query (use Select)")
	}
	pl, err := compile(q)
	if err != nil {
		return QueryResult{}, err
	}
	res := QueryResult{Ask: q.Form == sparql.FormAsk, Vars: pl.vars}

	r.readLock()
	defer r.mu.RUnlock()
	// Captured under the read lock: mutations bump the generation under
	// the write lock, so it cannot change for the rest of the evaluation.
	res.Generation = r.gen.Load()
	var sent int
	res.Truth, sent, err = r.runLocked(ctx, pl, maxRows, onHead, onRow)
	r.recordQueryLocked(ctx, queryText, q, pl.slots, sent, time.Since(start), err)
	return res, err
}

// plan is a compiled query: every variable has a slot in one namespace
// — the WHERE-clause variables in order of first appearance (triple
// patterns, required and OPTIONAL; BIND targets; VALUES variables),
// then the aggregate aliases — and the projection is a slot list.
type plan struct {
	q     *sparql.Query
	slots map[string]int // variable name → slot
	names []string       // slot → variable name
	vars  []string       // the projection, QueryResult.Vars
	proj  []int          // slot of each projected variable
	agg   bool           // the query groups (GROUP BY or an aggregate)
}

// slot returns name's slot, assigning the next one on first sight.
func (pl *plan) slot(name string) int {
	s, ok := pl.slots[name]
	if !ok {
		s = len(pl.names)
		pl.slots[name] = s
		pl.names = append(pl.names, name)
	}
	return s
}

// compile is the one compile step of the read path — SPARQL queries,
// Query / QueryFunc / QueryCount and DELETE WHERE all go through it. It
// assigns the slots, caps them at the 64 a bound mask holds, checks
// that every clause names variables it can see, and fixes the
// projection. It needs no lock: constants are resolved against the
// dictionary per group, at run time (encodePatterns).
func compile(q *sparql.Query) (*plan, error) {
	pl := &plan{q: q, slots: map[string]int{}, agg: q.HasAggregates() || len(q.GroupBy) > 0}
	for _, g := range q.Groups {
		pl.patternVars(g.Patterns)
		for _, o := range g.Optionals {
			pl.patternVars(o.Patterns)
		}
		for _, b := range g.Binds {
			pl.slot(b.Var)
		}
		for _, v := range g.Values {
			for _, name := range v.Vars {
				pl.slot(name)
			}
		}
	}
	where := len(pl.names) // slots from here on are aggregate aliases
	var err error
	check := func(clause, name string) {
		if slot, ok := pl.slots[name]; err == nil && (!ok || slot >= where) {
			err = fmt.Errorf("inferray: %s variable ?%s does not appear in the WHERE pattern", clause, name)
		}
	}
	switch {
	case q.Form == sparql.FormAsk:
	case pl.agg:
		// The parser already enforced the grouping rules that need only
		// the query text (plain projections covered by GROUP BY, no
		// SELECT *, aliases distinct from WHERE variables); here the keys
		// and aggregate arguments must resolve to WHERE-clause variables.
		for _, v := range q.GroupBy {
			check("GROUP BY", v)
		}
		for _, it := range q.Items {
			if it.Agg != nil {
				pl.slot(it.Name)
				if !it.Agg.Star {
					check("aggregate", it.Agg.Var)
				}
			}
		}
		// Post-aggregation rows carry only the GROUP BY keys and the
		// projected aggregates, so only those are orderable.
		for _, k := range q.OrderBy {
			if slot, ok := pl.slots[k.Var]; err == nil && !slices.Contains(q.GroupBy, k.Var) && (!ok || slot < where) {
				err = fmt.Errorf("inferray: ORDER BY variable ?%s is neither a GROUP BY key nor a projected aggregate", k.Var)
			}
		}
		pl.vars = q.Vars
	default:
		// A projected variable that never occurs in the WHERE clause is
		// almost always a typo; reject it instead of silently emitting
		// rows with the key missing. Variables bound only inside OPTIONAL
		// blocks or single UNION branches do occur — they are merely
		// unbound in some rows.
		for _, v := range q.Vars {
			check("SELECT", v)
		}
		for _, k := range q.OrderBy {
			check("ORDER BY", k.Var)
		}
		pl.vars = q.Vars
		if len(q.Vars) == 0 { // SELECT *
			for _, name := range pl.names {
				if !strings.HasPrefix(name, anonPrefix) {
					pl.vars = append(pl.vars, name)
				}
			}
		}
	}
	if len(pl.names) > 64 {
		return nil, fmt.Errorf("inferray: more than 64 distinct variables")
	}
	if err != nil {
		return nil, err
	}
	for _, v := range pl.vars {
		pl.proj = append(pl.proj, pl.slots[v])
	}
	return pl, nil
}

// patternVars gives every variable of the patterns a slot and returns
// the set of slots the patterns mention.
func (pl *plan) patternVars(pats [][3]string) (mask uint64) {
	for _, pat := range pats {
		for _, t := range pat {
			if strings.HasPrefix(t, "?") {
				mask |= 1 << uint(pl.slot(t[1:]))
			}
		}
	}
	return mask
}

// encodePatterns is the one surface-pattern compiler: it translates
// patterns to engine terms over the slots compile assigned; ok is false
// when a constant is not in the dictionary (it can match nothing).
func encodePatterns(dict *dictionary.Dictionary, pats [][3]string, slots map[string]int) ([]query.Pattern, bool) {
	out := make([]query.Pattern, len(pats))
	for i, pat := range pats {
		var terms [3]query.Term
		for pos, raw := range pat {
			if strings.HasPrefix(raw, "?") {
				terms[pos] = query.Var(slots[raw[1:]])
				continue
			}
			id, ok := dict.Lookup(raw)
			if !ok {
				return nil, false
			}
			terms[pos] = query.Const(id)
		}
		out[i] = query.Pattern{S: terms[0], P: terms[1], O: terms[2]}
	}
	return out, true
}

// stage is one link of the chain: it takes a slot row — IDs indexed by
// slot, valid where bound has the slot's bit — and reports whether the
// enumeration should go on. The IDs are the producer's buffer; a stage
// that keeps a row copies it.
type stage func(ids []uint64, bound uint64) bool

// run is one evaluation of a plan under the read lock.
type run struct {
	*plan
	eng  *query.Engine
	dict *dictionary.Dictionary

	// Terms the dictionary does not hold — BIND results, aggregate
	// outputs, never-stored VALUES cells — get query-local IDs from
	// localBase up, far outside the dictionary's range. encode asks the
	// dictionary first, so within a run equal IDs mean equal terms and
	// DISTINCT and GROUP BY can key on ID tuples.
	local    []string
	localIDs map[string]uint64

	ctx     context.Context // nil unless cancelable
	polled  int
	err     error // what aborted the walk: the context's error
	stopped bool  // a stage, or err, ended the enumeration
	next    stage // what follows FILTER
}

const localBase uint64 = 1 << 63

// encode returns the ID of a term: the dictionary's, else a query-local one.
func (rn *run) encode(term string) uint64 {
	if id, ok := rn.dict.Lookup(term); ok {
		return id
	}
	id, ok := rn.localIDs[term]
	if !ok {
		if rn.localIDs == nil {
			rn.localIDs = map[string]uint64{}
		}
		id = localBase + uint64(len(rn.local))
		rn.local = append(rn.local, term)
		rn.localIDs[term] = id
	}
	return id
}

// decode returns the surface form behind an ID of either kind.
func (rn *run) decode(id uint64) string {
	if id >= localBase {
		return rn.local[id-localBase]
	}
	return rn.dict.MustDecode(id)
}

// cell decodes one slot of a row; ok is false when it is unbound.
func (rn *run) cell(ids []uint64, bound uint64, slot int) (string, bool) {
	if bound&(1<<uint(slot)) == 0 {
		return "", false
	}
	return rn.decode(ids[slot]), true
}

// cellID is the ID in one slot of a row, or the zero ID — which no term
// has — when the slot is unbound.
func cellID(ids []uint64, bound uint64, slot int) uint64 {
	if bound&(1<<uint(slot)) == 0 {
		return 0
	}
	return ids[slot]
}

// tupleKey appends the fixed-width key of the given cells of a row,
// eight bytes a cell.
func tupleKey(key []byte, slots []int, ids []uint64, bound uint64) []byte {
	for _, s := range slots {
		key = binary.LittleEndian.AppendUint64(key, cellID(ids, bound, s))
	}
	return key
}

// tupleSet numbers the distinct ID tuples that some cells of the rows
// take, in first-seen order: the GROUP BY buckets and the DISTINCT
// filter. A one-cell tuple is keyed by its ID, a wider one by its
// tupleKey.
type tupleSet struct {
	slots []int
	one   map[uint64]int // len(slots) == 1
	many  map[string]int // otherwise
	key   []byte
}

func newTupleSet(slots []int) *tupleSet {
	ts := &tupleSet{slots: slots}
	if len(slots) == 1 {
		ts.one = map[uint64]int{}
	} else {
		ts.many = map[string]int{}
	}
	return ts
}

// add returns the number of the row's tuple and whether the row is the
// first to have it.
func (ts *tupleSet) add(ids []uint64, bound uint64) (n int, first bool) {
	if ts.one != nil {
		id := cellID(ids, bound, ts.slots[0])
		if n, ok := ts.one[id]; ok {
			return n, false
		}
		n = len(ts.one)
		ts.one[id] = n
		return n, true
	}
	ts.key = tupleKey(ts.key[:0], ts.slots, ids, bound)
	if n, ok := ts.many[string(ts.key)]; ok {
		return n, false
	}
	n = len(ts.many)
	ts.many[string(ts.key)] = n
	return n, true
}

// Row is one solution as Exec delivers it: the projected cells by
// position, parallel to QueryResult.Vars. It is a view of the chain's
// buffers, valid only until the onRow call it was passed to returns.
type Row struct {
	run   *run
	ids   []uint64
	bound uint64
}

// Term returns the surface form of the i-th projected variable; ok is
// false when an OPTIONAL block or a UNION branch left it unbound.
func (row Row) Term(i int) (term string, ok bool) {
	return row.run.cell(row.ids, row.bound, row.run.proj[i])
}

// lookup is the chain's one name → term resolver, in the shape the
// expression evaluator takes: a stage points a Row at the current
// solution and hands lookup to sparql.Eval / EvalTerm.
func (row *Row) lookup(name string) (string, bool) {
	slot, ok := row.run.slots[name]
	if !ok {
		return "", false
	}
	return row.run.cell(row.ids, row.bound, slot)
}

// runLocked builds the chain for pl back to front and drives every
// UNION branch through it. It returns the ASK answer, the number of
// rows delivered, and the context error that aborted the walk, if one
// did. The caller holds r.mu.
func (r *Reasoner) runLocked(ctx context.Context, pl *plan, maxRows int, onHead func([]string), onRow func(Row) bool) (truth bool, sent int, err error) {
	q := pl.q
	rn := &run{plan: pl, eng: r.queryEngine(), dict: r.engine.Dict}
	// Deadline polling is armed only for cancelable contexts (Done() is
	// nil for context.Background(), so the library paths pay nothing): in
	// the engine's walk every few thousand candidate triples, so a join
	// that matches nothing for long still stops, and at the head of the
	// chain every 256 rows, which covers rows no scan produced (VALUES).
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return false, 0, err
		}
		rn.ctx = ctx
		rn.eng.Stop = ctx.Err
	}

	// Effective row cap: the query's LIMIT tightened by the caller's.
	limit := -1
	if q.HasLimit {
		limit = q.Limit
	}
	if maxRows > 0 && (limit < 0 || maxRows < limit) {
		limit = maxRows
	}
	tl := &tail{run: rn, offset: q.Offset, limit: limit, out: onRow}
	if q.Distinct {
		tl.seen = newTupleSet(rn.proj)
	}
	rn.next = tl.push

	var ob *orderBuffer
	var agg *aggregator
	if q.Form == sparql.FormAsk {
		rn.next = func([]uint64, uint64) bool {
			truth = true
			return false // one witness is enough
		}
	} else {
		if len(q.OrderBy) > 0 {
			// Bounded buffering: with an effective limit, only the
			// OFFSET+LIMIT smallest rows can ever be delivered, so the
			// buffer is a top-k heap. DISTINCT falls back to the full sort
			// — deduplication happens after sorting, so a bounded buffer
			// could evict rows that deduplication would have promoted into
			// the window.
			k := -1
			if limit >= 0 && !q.Distinct {
				k = q.Offset + limit
			}
			ob = newOrderBuffer(rn, q.OrderBy, k)
			rn.next = ob.push
		}
		if pl.agg {
			agg = newAggregator(rn, rn.next)
			rn.next = agg.add
		}
		if onHead != nil {
			onHead(append([]string{}, pl.vars...)) // never nil
		}
	}

	for _, g := range q.Groups {
		if rn.evalGroup(g); rn.stopped {
			break
		}
	}
	if rn.err != nil {
		// Aborted mid-enumeration: the buffered stages hold a partial
		// solution set, so flushing them would deliver wrong rows.
		return truth, tl.sent, rn.err
	}
	if agg != nil {
		agg.flush()
	}
	if ob != nil {
		ob.flush(tl.push)
	}
	return truth, tl.sent, nil
}

// evalGroup evaluates one UNION branch in SPARQL's group order. The
// seed stage joins the VALUES data with the required graph pattern
// first: each compatible combination of the blocks' rows pre-binds its
// slots for one engine run. The engine left-joins the OPTIONAL blocks;
// the head stage then polls the context, evaluates the BINDs in order
// (an erroring expression leaves its target unbound) and the FILTERs,
// and passes survivors to rn.next. rn.stopped is set once a later stage
// ended the enumeration (later branches must not run).
func (rn *run) evalGroup(g sparql.Group) {
	required, ok := encodePatterns(rn.dict, g.Patterns, rn.slots)
	if !ok {
		return // unknown constant: the branch yields nothing
	}
	// Everything seed-independent is built once, not per VALUES
	// combination. An OPTIONAL block with an unknown constant never
	// matches — its variables stay unbound — so it is simply left out.
	var opts []query.OptionalGroup
	var optMasks []uint64
	for _, og := range g.Optionals {
		pats, ok := encodePatterns(rn.dict, og.Patterns, rn.slots)
		if !ok {
			continue
		}
		opts = append(opts, query.OptionalGroup{Patterns: pats, Accept: rn.optionalFilter(g, og.Filters)})
		optMasks = append(optMasks, rn.patternVars(og.Patterns))
	}

	cur := &Row{run: rn}
	lookup := cur.lookup
	head := func(ids []uint64, bound uint64) bool {
		if rn.ctx != nil {
			if rn.polled++; rn.polled&255 == 0 {
				if rn.err = rn.ctx.Err(); rn.err != nil {
					rn.stopped = true
					return false
				}
			}
		}
		cur.ids, cur.bound = ids, bound
		for _, b := range g.Binds {
			slot := rn.slots[b.Var]
			if cur.bound&(1<<uint(slot)) != 0 {
				continue // defensive: the parser rejects rebinding targets
			}
			if term, ok := sparql.EvalTerm(b.Expr, lookup); ok {
				ids[slot] = rn.encode(term)
				cur.bound |= 1 << uint(slot)
			}
		}
		for _, f := range g.Filters {
			if !sparql.Eval(f, lookup) {
				return true // constraint failed: keep walking
			}
		}
		rn.stopped = !rn.next(ids, cur.bound)
		return !rn.stopped
	}

	reqMask := rn.patternVars(g.Patterns)
	seedIDs := make([]uint64, len(rn.names))
	rn.forEachSeed(g.Values, seedIDs, 0, func(bound uint64) bool {
		// A VALUES cell the dictionary has never seen travels under its
		// local ID like any other. Pinning a required-pattern variable it
		// proves the combination empty; pinning an OPTIONAL block's
		// variable it kills just that block; pinning nothing it simply
		// shows up in the output rows. Either way the engine never looks
		// a local ID up.
		var seed []query.Binding
		var local uint64
		for m := bound; m != 0; m &= m - 1 {
			slot := bits.TrailingZeros64(m)
			seed = append(seed, query.Binding{Slot: slot, ID: seedIDs[slot]})
			if seedIDs[slot] >= localBase {
				local |= 1 << uint(slot)
			}
		}
		if local&reqMask != 0 {
			return true
		}
		live := opts
		if local != 0 {
			live = nil
			for i, opt := range opts {
				if local&optMasks[i] == 0 {
					live = append(live, opt)
				}
			}
		}
		if err := rn.eng.SolveLeftJoin(required, live, len(rn.names), seed, head); err != nil {
			rn.err, rn.stopped = err, true
		}
		return !rn.stopped
	})
}

// optionalFilter is an OPTIONAL block's Accept hook: its FILTERs over
// the candidate extension. BIND targets are visible to them (SPARQL
// binds them before a later OPTIONAL) although the BIND stage runs
// after the left join, so a name the row does not bind falls back to
// the group's BIND expression, evaluated on demand over the variables
// bound at that point of the join.
func (rn *run) optionalFilter(g sparql.Group, filters []sparql.Expr) func([]uint64, uint64) bool {
	if len(filters) == 0 {
		return nil
	}
	cur := &Row{run: rn}
	var busy map[string]bool // BIND targets being resolved: cycles stay unbound
	var lookup func(string) (string, bool)
	lookup = func(name string) (string, bool) {
		if term, ok := cur.lookup(name); ok {
			return term, true
		}
		for _, b := range g.Binds {
			if b.Var != name || busy[name] {
				continue
			}
			if busy == nil {
				busy = map[string]bool{}
			}
			busy[name] = true
			term, ok := sparql.EvalTerm(b.Expr, lookup)
			delete(busy, name)
			return term, ok
		}
		return "", false
	}
	return func(ids []uint64, bound uint64) bool {
		cur.ids, cur.bound = ids, bound
		for _, f := range filters {
			if !sparql.Eval(f, lookup) {
				return false
			}
		}
		return true
	}
}

// forEachSeed enumerates every cross-block-compatible combination of
// the VALUES blocks' rows (one empty combination when there are no
// blocks), writing each into ids and calling fn with its bound mask.
// UNDEF cells bind nothing; a variable two blocks both bind must agree.
// Returns false when fn stopped the enumeration.
func (rn *run) forEachSeed(blocks []sparql.Values, ids []uint64, bound uint64, fn func(bound uint64) bool) bool {
	if len(blocks) == 0 {
		return fn(bound)
	}
	vb := blocks[0]
rows:
	for _, vrow := range vb.Rows {
		merged := bound
		for k, name := range vb.Vars {
			if vrow[k] == "" {
				continue // UNDEF
			}
			slot, id := rn.slots[name], rn.encode(vrow[k])
			if bit := uint64(1) << uint(slot); merged&bit == 0 {
				ids[slot], merged = id, merged|bit
			} else if ids[slot] != id {
				continue rows
			}
		}
		if !rn.forEachSeed(blocks[1:], ids, merged, fn) {
			return false
		}
	}
	return true
}

// tail is the last stage: DISTINCT (on the projected cells), OFFSET and
// LIMIT in SPARQL's order, then delivery. Projection itself costs
// nothing — Row.Term reads through the plan's slot list.
type tail struct {
	run     *run
	seen    *tupleSet // DISTINCT: projected ID tuples already delivered
	offset  int
	limit   int // -1 = unlimited
	skipped int
	sent    int
	out     func(Row) bool
}

// push returns false once delivery must stop (limit reached or the
// consumer aborted).
func (tl *tail) push(ids []uint64, bound uint64) bool {
	if tl.limit == 0 {
		return false
	}
	if tl.seen != nil {
		if _, first := tl.seen.add(ids, bound); !first {
			return true
		}
	}
	if tl.skipped < tl.offset {
		tl.skipped++
		return true
	}
	if tl.out != nil && !tl.out(Row{tl.run, ids, bound}) {
		return false
	}
	tl.sent++
	return tl.limit < 0 || tl.sent < tl.limit
}

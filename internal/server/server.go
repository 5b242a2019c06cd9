// Package server exposes a shared inferray.Reasoner over HTTP — the
// online half of the paper's offline-materialize/online-serve split
// (§1–2: Inferray is the storage-and-inference layer under a SPARQL
// engine). Queries are answered from the materialized closure by plain
// index scans; deltas posted while serving are staged and materialized
// incrementally, and the reasoner's snapshot-consistent read path keeps
// every in-flight query on a closure that is entirely pre- or
// post-delta.
//
// Endpoints:
//
//	GET  /query?query=SELECT…   SPARQL SELECT or ASK (the dialect of
//	                            docs/SPARQL.md: UNION, OPTIONAL, BIND,
//	                            VALUES, FILTER, GROUP BY aggregates,
//	                            DISTINCT, ORDER BY, LIMIT/OFFSET),
//	                            incrementally encoded
//	                            application/sparql-results+json response
//	                            with unbound cells omitted per the spec;
//	                            optional &limit=N row cap on top of the
//	                            query's own LIMIT
//	POST /query                 same, query in the body (application/sparql-query,
//	                            at most 1 MiB: 413 past it) or form field "query"
//	POST /triples               N-Triples document staged as a delta and
//	                            materialized incrementally (durably, when the
//	                            reasoner has a data dir); JSON run stats
//	POST /update                SPARQL UPDATE (INSERT DATA, DELETE DATA,
//	                            DELETE WHERE; docs/SPARQL.md) in the body
//	                            (application/sparql-update) or form field
//	                            "update"; deletions maintain the closure
//	                            incrementally by delete-rederive; JSON stats
//	POST /checkpoint            admin: force a durability checkpoint (snapshot
//	                            image + WAL rotation); 409 on an in-memory
//	                            reasoner
//	GET  /wal                   replication: stream committed WAL records from
//	                            ?from=<gen>&records=<n>, long-polling for new
//	                            ones (durable reasoners only; see replication.go)
//	GET  /snapshot/latest       replication: the newest snapshot image for
//	                            follower bootstrap (durable reasoners only)
//	GET  /stats                 store size, traffic counters, build info,
//	                            last materialization, persistence state
//	GET  /healthz               liveness probe
//	GET  /readyz                readiness probe: 503 until the initial
//	                            recovery/materialization finished (see
//	                            SetReady), 200 after
//	GET  /metrics               Prometheus text exposition: the server's
//	                            HTTP families plus every family the
//	                            reasoner registers (reasoner, WAL, query
//	                            engine, build info, Go runtime)
//	GET  /debug/tables          where the resident bytes are: the
//	                            dictionary's terms and its arena / ref /
//	                            index bytes, and the top ?top=N (default
//	                            10) property tables by pairs with their
//	                            pair, mark and ⟨o,s⟩-cache bytes
//
// Every request is stamped with a request ID (the X-Request-ID header
// when the client sent one, a fresh random ID otherwise), echoed back
// in the response header and propagated into the reasoner's evaluation
// context so slow-query log records can be joined to access logs.
// EnablePprof additionally mounts net/http/pprof under /debug/pprof/.
//
// One route table (routes) lists every endpoint with what it allows,
// and one function (wrap) decides whether a request reaches its
// handler, always in this order: request ID, in-flight gauge and
// status/latency recording → method check (405 + Allow) → read-only
// refusal of the write surface (403 + Location) → rate limit (429 +
// Retry-After) → admission (503) → body limit (MaxBytesReader) →
// handler. A refused request is still counted and timed under its
// endpoint; a request with several faults gets the first refusal in
// that order and consumes nothing behind it (a 405 takes no rate-limit
// token).
//
// A configurable serving tier (Config / NewWithConfig) fronts the
// endpoints: GET /query reads through a result cache keyed on
// (normalized query, store generation) — provably never stale, because
// the generation changes on every mutation; entries for dead
// generations simply age out — bypassed per-request with Cache-Control:
// no-cache and reported in the X-Inferray-Cache header (hit | miss |
// bypass). Per-client token buckets refuse excess /query and
// /update+/triples traffic with 429 + Retry-After, a max-in-flight cap
// sheds queries with 503, and a query deadline aborts runaway
// evaluations with 504. Responses carry X-Inferray-Generation, the
// store generation they reflect: a write's generation is g, so any
// later response with generation >= g includes that write.
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inferray"
	"inferray/internal/metrics"
	"inferray/internal/qcache"
	"inferray/internal/ratelimit"
	"inferray/internal/rdf"
	"inferray/internal/sparql"
)

// Server serves one Reasoner. All handlers are safe for concurrent use:
// queries ride the reasoner's shared read lock while deltas serialize
// through its materialization lock.
type Server struct {
	r     *inferray.Reasoner
	start time.Time

	// reg holds the server's own HTTP-level metric families; GET
	// /metrics writes it followed by the reasoner's registry. Keeping
	// them separate means the server never reaches into internal metric
	// types through the public inferray API, and family names must
	// simply not collide (HTTP families are inferray_http_*).
	reg          *metrics.Registry
	httpRequests *metrics.CounterVec   // by endpoint and status code
	httpDuration *metrics.HistogramVec // by endpoint
	inFlight     *metrics.Gauge

	// What a /query result costs after the engine: body bytes put on the
	// wire and the time from Exec returning (or a cache hit) to the last
	// page handed to the connection.
	responseBytes *metrics.Counter
	writeDuration *metrics.Histogram

	// Serving tier (see Config): query-result cache, per-client rate
	// limiters, and admission control. cache and the limiters are always
	// non-nil (their disabled forms are no-ops); admit is nil when no
	// in-flight cap is configured.
	cfg         Config
	cache       *qcache.Cache
	queryLimit  *ratelimit.Limiter
	updateLimit *ratelimit.Limiter
	admit       chan struct{}

	rlLimited   *metrics.CounterVec // by budget (query | update)
	admShed     *metrics.Counter
	admDeadline *metrics.Counter

	// repl instruments the leader-side replication endpoints; non-nil
	// exactly when the reasoner is durable (only a durable reasoner has
	// a WAL to ship, so /wal and /snapshot/latest are only mounted then).
	repl *replMetrics
	// follower is the replication tailer feeding this server's reasoner,
	// set by NewFollower; nil on a leader or standalone server.
	follower *Follower

	// ready gates /readyz: true once the initial recovery and
	// materialization finished. New starts ready (embedders that
	// construct the server after loading need no extra call); the CLI
	// flips it off while loading and on before announcing the address.
	ready atomic.Bool
	// pprofOn mounts net/http/pprof under /debug/pprof/ (EnablePprof).
	pprofOn atomic.Bool

	queries      atomic.Int64
	queryErrors  atomic.Int64
	deltaBatches atomic.Int64
	deltaTriples atomic.Int64
	checkpoints  atomic.Int64
	updates      atomic.Int64
	updateErrors atomic.Int64

	lastMu sync.Mutex
	last   inferray.Stats
	lastAt time.Time
	hasRun bool
}

// New wraps a reasoner (typically already loaded and materialized)
// with the default serving tier (DefaultConfig: caching on, no rate
// limiting, no admission cap). The server starts ready; use
// SetReady(false) before serving if the initial load happens while the
// listener is already accepting.
func New(r *inferray.Reasoner) *Server {
	return NewWithConfig(r, DefaultConfig())
}

// NewWithConfig wraps a reasoner with an explicit serving-tier
// configuration; the zero Config disables the cache, the limiters, the
// in-flight cap, and the query deadline.
func NewWithConfig(r *inferray.Reasoner, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	s := &Server{
		r:     r,
		start: time.Now(),
		reg:   reg,
		httpRequests: reg.CounterVec("inferray_http_requests_total",
			"HTTP requests completed, by endpoint and status code.",
			"endpoint", "code"),
		httpDuration: reg.HistogramVec("inferray_http_request_duration_seconds",
			"HTTP request wall time, by endpoint.",
			metrics.DurationBuckets(), "endpoint"),
		inFlight: reg.Gauge("inferray_http_in_flight_requests",
			"HTTP requests currently being handled."),
		responseBytes: reg.Counter("inferray_http_query_response_bytes_total",
			"Body bytes of /query results written, cache hits included."),
		writeDuration: reg.Histogram("inferray_http_query_write_seconds",
			"Time from a /query result being ready (evaluated or found in the cache) to its last byte handed to the connection.",
			metrics.DurationBuckets()),

		cfg: cfg,
		cache: qcache.New(qcache.Options{
			MaxEntries:    cfg.CacheEntries,
			MaxBytes:      cfg.CacheBytes,
			MaxEntryBytes: cfg.CacheEntryBytes,
		}),
		queryLimit:  ratelimit.New(cfg.QueryRPS, cfg.QueryBurst),
		updateLimit: ratelimit.New(cfg.UpdateRPS, cfg.UpdateBurst),

		rlLimited: reg.CounterVec("inferray_ratelimit_limited_total",
			"Requests refused with 429, by budget.", "budget"),
		admShed: reg.Counter("inferray_admission_shed_total",
			"Query requests shed with 503 at the max-in-flight cap."),
		admDeadline: reg.Counter("inferray_admission_deadline_total",
			"Query evaluations aborted with 504 at the query deadline."),
	}
	if cfg.MaxInFlight > 0 {
		s.admit = make(chan struct{}, cfg.MaxInFlight)
	}
	if r.Durable() {
		s.repl = newReplMetrics(reg)
	}
	// The cache counts its own hits, misses and bypasses (Get, Bypass);
	// /stats and /metrics both read those numbers, so they cannot drift.
	reg.CounterFunc("inferray_cache_hits_total",
		"Query responses served from the result cache.",
		func() float64 { return float64(s.cache.Snapshot().Hits) })
	reg.CounterFunc("inferray_cache_misses_total",
		"Cacheable query requests that missed the result cache.",
		func() float64 { return float64(s.cache.Snapshot().Misses) })
	reg.CounterFunc("inferray_cache_bypassed_total",
		"Query requests that skipped the result cache (no-cache, POST, or oversized).",
		func() float64 { return float64(s.cache.Snapshot().Bypassed) })
	reg.GaugeFunc("inferray_cache_entries",
		"Entries currently held by the query-result cache.",
		func() float64 { return float64(s.cache.Snapshot().Entries) })
	reg.GaugeFunc("inferray_cache_bytes",
		"Body bytes currently held by the query-result cache.",
		func() float64 { return float64(s.cache.Snapshot().Bytes) })
	s.ready.Store(true)
	return s
}

// SetReady flips the /readyz readiness state: false answers 503 so a
// load balancer keeps traffic away during recovery or the initial
// materialization, true answers 200. /healthz is unaffected — the
// process is alive either way.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// EnablePprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/ on handlers returned by subsequent Handler calls.
// Off by default: the profiling surface (heap dumps, CPU profiles,
// symbol tables) is opt-in.
func (s *Server) EnablePprof() { s.pprofOn.Store(true) }

// route is one row of the route table: everything the server decides
// about a request before its handler runs.
type route struct {
	pattern  string
	endpoint string   // label on the inferray_http_* families
	methods  []string // allowed methods; nil admits any (the probes)
	write    bool     // refused with 403 on a read-only replica
	budget   string   // rate-limit budget: "query", "update", or "" for none
	admitted bool     // counts against the max-in-flight cap
	bounded  bool     // body bounded at Config.MaxBodyBytes
	durable  bool     // mounted only when the reasoner has a WAL to ship
	handler  func(*Server, http.ResponseWriter, *http.Request)
}

// routes is every instrumented endpoint. It is a literal, not
// configuration: wrap reads a row and applies the checks in the one
// order the package comment documents.
var routes = []route{
	{pattern: "/query", endpoint: "query", methods: []string{"GET", "POST"}, budget: "query", admitted: true, handler: (*Server).handleQuery},
	{pattern: "/triples", endpoint: "triples", methods: []string{"POST"}, write: true, budget: "update", bounded: true, handler: (*Server).handleTriples},
	{pattern: "/update", endpoint: "update", methods: []string{"POST"}, write: true, budget: "update", bounded: true, handler: (*Server).handleUpdate},
	{pattern: "/checkpoint", endpoint: "checkpoint", methods: []string{"POST"}, write: true, handler: (*Server).handleCheckpoint},
	{pattern: "/wal", endpoint: "wal", methods: []string{"GET"}, durable: true, handler: (*Server).handleWAL},
	{pattern: "/snapshot/latest", endpoint: "snapshot", methods: []string{"GET"}, durable: true, handler: (*Server).handleSnapshotLatest},
	{pattern: "/stats", endpoint: "stats", methods: []string{"GET"}, handler: (*Server).handleStats},
	{pattern: "/healthz", endpoint: "healthz", handler: (*Server).handleHealthz},
	{pattern: "/readyz", endpoint: "readyz", handler: (*Server).handleReadyz},
	{pattern: "/metrics", endpoint: "metrics", methods: []string{"GET"}, handler: (*Server).handleMetrics},
	{pattern: "/debug/tables", endpoint: "debug_tables", methods: []string{"GET"}, handler: (*Server).handleDebugTables},
}

// Handler returns the routed HTTP handler: every endpoint of the route
// table behind the request pipeline the package comment describes, plus
// the pprof handlers once EnablePprof was called.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		if !rt.durable || s.r.Durable() {
			mux.Handle(rt.pattern, s.wrap(rt))
		}
	}
	if s.pprofOn.Load() {
		// pprof's own handlers are not instrumented: a 30-second CPU
		// profile would distort the latency histogram, and the debug
		// surface is not traffic worth alerting on.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusRecorder captures the status code a handler writes (200 when
// it never calls WriteHeader explicitly).
type statusRecorder struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the status code and forwards it.
func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the wrapped writer to http.NewResponseController, so
// an optional interface this type does not forward itself (deadlines,
// hijacking) still reaches the server's writer.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// Flush forwards to the wrapped writer so streaming handlers (the
// long-polling GET /wal) can push frames out mid-response instead of
// buffering until the poll window closes.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap is the one place a request is admitted: it puts a route behind
// the checks its row asks for, in the order the package comment
// documents. The chain is built inside out — body limit, admission and
// rate limit around the handler — and the method and read-only checks
// run first, inside the instrumentation, so refusals are counted too.
func (s *Server) wrap(rt route) http.Handler {
	h := func(w http.ResponseWriter, req *http.Request) {
		if rt.bounded {
			req.Body = s.limitBody(w, req)
		}
		rt.handler(s, w, req)
	}
	if rt.admitted {
		h = s.admitted(h)
	}
	switch rt.budget {
	case "query":
		h = s.limited(rt.budget, s.queryLimit, h)
	case "update":
		h = s.limited(rt.budget, s.updateLimit, h)
	}
	duration := s.httpDuration.With(rt.endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		req = req.WithContext(inferray.ContextWithRequestID(req.Context(), id))

		s.inFlight.Inc()
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		if rt.methods != nil && !slices.Contains(rt.methods, req.Method) {
			sr.Header().Set("Allow", strings.Join(rt.methods, ", "))
			httpError(sr, http.StatusMethodNotAllowed, "use %s", strings.Join(rt.methods, " or "))
		} else if !rt.write || !s.readOnly(sr, req) {
			h(sr, req)
		}
		duration.ObserveDuration(time.Since(start))
		s.inFlight.Dec()
		s.httpRequests.With(rt.endpoint, strconv.Itoa(sr.code)).Inc()
	})
}

// newRequestID mints a 16-hex-character random request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; an ID derived from
		// the clock still serves its correlation purpose.
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// Serve accepts connections on ln until ctx is canceled, then shuts
// down gracefully: in-flight requests get up to ten seconds to finish.
// Connection hygiene comes from Config: IdleTimeout reaps kept-alive
// connections between requests and WriteTimeout bounds the whole
// request/response cycle, so a client that stops reading its response
// (or never sends a next request) cannot hold a connection forever.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       s.cfg.IdleTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ---------------------------------------------------------------- /query

// askResults is the SPARQL 1.1 boolean results document for ASK.
type askResults struct {
	Head    struct{} `json:"head"`
	Boolean bool     `json:"boolean"`
}

// binding is one RDF term in results-JSON form. appendBinding writes
// the fields in this order and with encoding/json's escaping.
type binding struct {
	Type     string `json:"type"` // "uri" | "literal" | "bnode"
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

// queryError is the structured 400 body for a failed /query: the
// message, and for parse failures the exact position internal/sparql
// reported (1-based line and column plus the offending token).
type queryError struct {
	Error  string `json:"error"`
	Line   int    `json:"line,omitempty"`
	Column int    `json:"column,omitempty"`
	Token  string `json:"token,omitempty"`
}

// queryBodyLimit bounds a POST /query body sent as
// application/sparql-query. Config.MaxBodyBytes bounds the write
// endpoints only.
const queryBodyLimit = 1 << 20

func (s *Server) handleQuery(w http.ResponseWriter, req *http.Request) {
	var text string
	var limitParam string
	switch req.Method {
	case http.MethodGet:
		text = req.URL.Query().Get("query")
		limitParam = req.URL.Query().Get("limit")
	case http.MethodPost:
		ct := req.Header.Get("Content-Type")
		if strings.HasPrefix(ct, "application/sparql-query") {
			// MaxBytesReader (not LimitReader) so an oversized query is
			// an error, never silently truncated into a different query.
			body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, queryBodyLimit))
			if err != nil {
				if !tooLarge(w, err) {
					httpError(w, http.StatusBadRequest, "reading body: %v", err)
				}
				return
			}
			text = string(body)
			limitParam = req.URL.Query().Get("limit")
		} else {
			text = req.FormValue("query")
			limitParam = req.FormValue("limit")
		}
	}
	if strings.TrimSpace(text) == "" {
		httpError(w, http.StatusBadRequest, "missing query parameter")
		return
	}
	maxRows := 0
	if limitParam != "" {
		n, err := strconv.Atoi(limitParam)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "limit must be a non-negative integer, got %q", limitParam)
			return
		}
		maxRows = n
	}

	// Cache lookup: GET only, opt-out via Cache-Control: no-cache. The
	// key's generation is read before evaluation; on a miss the entry is
	// stored under the generation the evaluation actually ran at
	// (QueryResult.Generation, captured under the read lock), so a
	// cached body is exact for its key even if a write lands between
	// the lookup and the evaluation.
	cacheable := req.Method == http.MethodGet && s.cache.Enabled()
	cacheState := "bypass"
	var key qcache.Key
	if cacheable && wantsNoCache(req) {
		cacheable = false
		s.cache.Bypass()
	}
	if cacheable {
		key = qcache.Key{Query: qcache.Normalize(text), Generation: s.r.Generation(), MaxRows: maxRows}
		if e, ok := s.cache.Get(key); ok {
			s.queries.Add(1)
			w.Header().Set("X-Inferray-Cache", "hit")
			genHeader(w, key.Generation)
			w.Header().Set("Content-Type", e.ContentType)
			s.writeResult(w, time.Now(), e.Body)
			return
		}
		cacheState = "miss"
	}

	ctx := req.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}

	// The results document is encoded by a streaming writer: the head
	// as soon as the query is planned, one binding at a time as rows
	// are produced — never a whole-document marshal. It is encoded
	// into fixed pages and put on the wire only after Exec returns,
	// because Exec runs under the reasoner's read lock: writing to
	// a stalled client from inside the callbacks would let one slow
	// reader hold the lock, block the next Materialize, and behind it
	// every new query. Every error Exec can return before the head
	// callback runs is a 400; after it only the context can fail the
	// query. The limit parameter is the caller's tool for bounding the
	// buffered size.
	st := &resultStream{}
	res, err := s.r.Exec(ctx, text, maxRows, st.head, st.row)
	ready := time.Now()
	if err != nil {
		s.queryErrors.Add(1)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.admDeadline.Inc()
			httpError(w, http.StatusGatewayTimeout, "query exceeded the %v deadline", s.cfg.QueryTimeout)
		case errors.Is(err, context.Canceled):
			// The client went away; the status is for the access log.
			httpError(w, http.StatusServiceUnavailable, "query canceled")
		default:
			writeQueryError(w, err)
		}
		return
	}
	s.queries.Add(1)

	const resultsType = "application/sparql-results+json"
	var pages [][]byte
	if res.Ask {
		enc, _ := json.Marshal(askResults{Boolean: res.Truth})
		pages = [][]byte{append(enc, '\n')}
	} else {
		pages = st.finish()
	}
	if cacheable {
		// The cache keeps one exact-size body, never the pages' slack.
		body := bytes.Join(pages, nil)
		pages = [][]byte{body}
		key.Generation = res.Generation
		if !s.cache.Put(key, qcache.Entry{Body: body, ContentType: resultsType}) {
			// Oversized for the cache: served, just not stored.
			s.cache.Bypass()
			cacheState = "bypass"
		}
	}
	w.Header().Set("X-Inferray-Cache", cacheState)
	genHeader(w, res.Generation)
	w.Header().Set("Content-Type", resultsType)
	s.writeResult(w, ready, pages...)
}

// writeResult sets Content-Length and hands a /query body's pages to the
// connection in order, then counts the bytes written and the time since
// the result was ready.
func (s *Server) writeResult(w http.ResponseWriter, ready time.Time, pages ...[]byte) {
	size := 0
	for _, p := range pages {
		size += len(p)
	}
	w.Header().Set("Content-Length", strconv.Itoa(size))
	written := 0
	for _, p := range pages {
		n, err := w.Write(p)
		written += n
		if err != nil {
			break // the client went away
		}
	}
	s.writeDuration.ObserveDuration(time.Since(ready))
	s.responseBytes.Add(uint64(written))
}

// writeQueryError sends the structured 400, lifting position info out
// of parse errors.
func writeQueryError(w http.ResponseWriter, err error) {
	qe := queryError{Error: err.Error()}
	var pe *sparql.ParseError
	if errors.As(err, &pe) {
		qe.Line, qe.Column, qe.Token = pe.Line, pe.Col, pe.Token
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	_ = json.NewEncoder(w).Encode(qe)
}

// Result pages: rows are appended to a page while at least pageSlack
// bytes of it are free, then to a new one; a row larger than what is
// left simply grows its page. Nothing is regrown from empty.
const (
	pageSize  = 64 << 10
	pageSlack = 1 << 10
)

// resultStream encodes a sparql-results+json document incrementally
// into fixed pages: the envelope and head on the first callback, one
// binding object per row written straight from the row's cells, and
// the closing brackets in finish — bounded per-row work, no
// whole-document marshal and no per-row map.
type resultStream struct {
	pages [][]byte // filled pages, in order
	page  []byte   // the page rows are appended to
	cols  []int    // the projected columns a binding object lists, in key order
	keys  [][]byte // `"name":` for each of cols
	rows  int
}

func (st *resultStream) head(vars []string) {
	names, _ := json.Marshal(vars)
	st.page = fmt.Appendf(make([]byte, 0, pageSize), `{"head":{"vars":%s},"results":{"bindings":[`, names)
	// A binding object is what json.Marshal made of a map from variable
	// name to binding: every name once, sorted.
	for i, v := range vars {
		if slices.Index(vars, v) == i {
			st.cols = append(st.cols, i)
		}
	}
	slices.SortFunc(st.cols, func(a, b int) int { return strings.Compare(vars[a], vars[b]) })
	for _, c := range st.cols {
		st.keys = append(st.keys, append(appendJSONString(nil, vars[c]), ':'))
	}
}

func (st *resultStream) row(row inferray.Row) bool {
	if cap(st.page)-len(st.page) < pageSlack {
		st.pages = append(st.pages, st.page)
		st.page = make([]byte, 0, pageSize)
	}
	b := st.page
	if st.rows > 0 {
		b = append(b, ',')
	}
	st.rows++
	b = append(b, '{')
	start := len(b)
	for k, c := range st.cols {
		term, ok := row.Term(c)
		if !ok {
			continue // unbound cells are omitted, per the results-JSON spec
		}
		if len(b) > start {
			b = append(b, ',')
		}
		b = appendBinding(append(b, st.keys[k]...), term)
	}
	st.page = append(b, '}')
	return true
}

// finish closes the document and returns its pages in order.
func (st *resultStream) finish() [][]byte {
	return append(st.pages, append(st.page, "]}}\n"...))
}

// appendBinding appends term's results-JSON binding object: the bytes
// json.Marshal(termBinding(term)) makes. IRIs and blank nodes, nearly
// every cell, are written straight from the surface form.
func appendBinding(dst []byte, term string) []byte {
	switch {
	case rdf.IsIRI(term):
		dst = appendJSONString(append(dst, `{"type":"uri","value":`...), term[1:len(term)-1])
	case rdf.IsBlank(term):
		dst = appendJSONString(append(dst, `{"type":"bnode","value":`...), term[2:])
	default:
		b := termBinding(term)
		dst = append(append(append(dst, `{"type":"`...), b.Type...), `","value":`...)
		dst = appendJSONString(dst, b.Value)
		if b.Lang != "" {
			dst = appendJSONString(append(dst, `,"xml:lang":`...), b.Lang)
		}
		if b.Datatype != "" {
			dst = appendJSONString(append(dst, `,"datatype":`...), b.Datatype)
		}
	}
	return append(dst, '}')
}

// plain marks the bytes encoding/json copies into a string unchanged:
// printable ASCII except the quote, the backslash and the HTML-escaped
// <, > and &.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	for _, c := range []byte(`"\<>&`) {
		t[c] = false
	}
	return t
}()

// appendJSONString appends s as encoding/json renders a string (HTML
// escaping on). A string of plain bytes, nearly every term, is copied;
// anything that needs an escape or a UTF-8 check goes through
// json.Marshal, so the bytes match it by construction.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			enc, _ := json.Marshal(s)
			return append(dst, enc...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// termBinding converts an N-Triples surface form into results-JSON.
func termBinding(term string) binding {
	switch {
	case rdf.IsIRI(term):
		return binding{Type: "uri", Value: term[1 : len(term)-1]}
	case rdf.IsBlank(term):
		return binding{Type: "bnode", Value: term[2:]}
	case rdf.IsLiteral(term):
		lex, lang, datatype, ok := rdf.SplitLiteral(term)
		if !ok {
			return binding{Type: "literal", Value: term}
		}
		return binding{Type: "literal", Value: lex, Lang: lang, Datatype: datatype}
	default:
		return binding{Type: "literal", Value: term}
	}
}

// -------------------------------------------------------------- /triples

// deltaResponse reports what one posted delta did.
type deltaResponse struct {
	Staged      int    `json:"staged"`      // triples parsed from the body
	NewInput    int    `json:"new_input"`   // distinct triples not visible before
	Inferred    int    `json:"inferred"`    // further closure growth
	Total       int    `json:"total"`       // store size after materialization
	Iterations  int    `json:"iterations"`  // fixpoint rounds
	Incremental bool   `json:"incremental"` // false only for the very first load
	Duration    string `json:"duration"`    // wall time of the materialization
	DurationMS  int64  `json:"duration_ms"`
}

// limitBody bounds a write request's body at cfg.MaxBodyBytes (negative
// = unlimited). Reads past the limit fail with *http.MaxBytesError,
// which tooLarge maps to a structured 413.
func (s *Server) limitBody(w http.ResponseWriter, req *http.Request) io.ReadCloser {
	if s.cfg.MaxBodyBytes < 0 {
		return req.Body
	}
	return http.MaxBytesReader(w, req.Body, s.cfg.MaxBodyBytes)
}

// readErrTracker remembers the first non-EOF error a reader returned.
// The N-Triples scanner tokenizes whatever bytes arrived before a read
// error and reports the torn last line as a parse error, so the
// body-limit overflow has to be observed at the reader, not inferred
// from the parser's error.
type readErrTracker struct {
	r   io.Reader
	err error
}

// Read forwards to the wrapped reader, recording its first real error.
func (tr *readErrTracker) Read(p []byte) (int, error) {
	n, err := tr.r.Read(p)
	if err != nil && err != io.EOF && tr.err == nil {
		tr.err = err
	}
	return n, err
}

// tooLarge answers a body-limit overflow with a structured 413 carrying
// the limit that was exceeded; reports whether err was one.
func tooLarge(w http.ResponseWriter, err error) bool {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusRequestEntityTooLarge)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":       fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit),
		"limit_bytes": mbe.Limit,
	})
	return true
}

func (s *Server) handleTriples(w http.ResponseWriter, req *http.Request) {
	var batch []inferray.Triple
	body := &readErrTracker{r: req.Body} // bounded by wrap (limitBody)
	err := rdf.ReadNTriples(body, func(t rdf.Triple) error {
		batch = append(batch, t)
		return nil
	})
	if err != nil {
		if tooLarge(w, body.err) || tooLarge(w, err) {
			return
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	staged := len(batch)
	st, err := s.r.Insert(batch)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.deltaBatches.Add(1)
	s.deltaTriples.Add(int64(staged))
	s.lastMu.Lock()
	s.last, s.lastAt, s.hasRun = st, time.Now(), true
	s.lastMu.Unlock()

	genHeader(w, s.r.Generation())
	writeJSON(w, "application/json", deltaResponse{
		Staged:      staged,
		NewInput:    st.InputTriples,
		Inferred:    st.InferredTriples,
		Total:       st.TotalTriples,
		Iterations:  st.Iterations,
		Incremental: st.Incremental,
		Duration:    st.TotalTime.String(),
		DurationMS:  st.TotalTime.Milliseconds(),
	})
}

// --------------------------------------------------------------- /update

// updateResponse reports what one SPARQL UPDATE request did.
type updateResponse struct {
	Ops             int    `json:"ops"`              // operations executed
	Inserted        int    `json:"inserted"`         // triples asserted by INSERT DATA
	Deleted         int    `json:"deleted"`          // asserted triples retracted
	Total           int    `json:"total"`            // visible closure size afterwards
	EncodingDropped bool   `json:"encoding_dropped"` // a schema delete disabled the hierarchy encoding
	Duration        string `json:"duration"`
	DurationMS      int64  `json:"duration_ms"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, req *http.Request) {
	// req.Body is bounded by wrap (limitBody); tooLarge maps the overflow.
	var text string
	ct := req.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/sparql-update") {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			if tooLarge(w, err) {
				return
			}
			httpError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		text = string(body)
	} else {
		if err := req.ParseForm(); err != nil {
			if tooLarge(w, err) {
				return
			}
			httpError(w, http.StatusBadRequest, "parsing form: %v", err)
			return
		}
		text = req.FormValue("update")
	}
	if strings.TrimSpace(text) == "" {
		httpError(w, http.StatusBadRequest, "missing update parameter")
		return
	}
	start := time.Now()
	st, err := s.r.Update(text)
	elapsed := time.Since(start)
	if err != nil {
		s.updateErrors.Add(1)
		var pe *sparql.ParseError
		if errors.As(err, &pe) {
			writeQueryError(w, err)
		} else {
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	s.updates.Add(1)
	genHeader(w, s.r.Generation())
	writeJSON(w, "application/json", updateResponse{
		Ops:             st.Ops,
		Inserted:        st.Inserted,
		Deleted:         st.Deleted,
		Total:           s.r.Size(),
		EncodingDropped: st.EncodingDropped,
		Duration:        elapsed.String(),
		DurationMS:      elapsed.Milliseconds(),
	})
}

// ------------------------------------------------------------ /checkpoint

// checkpointResponse reports a forced checkpoint.
type checkpointResponse struct {
	Generation    uint64 `json:"generation"`
	Triples       int    `json:"triples"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	Duration      string `json:"duration"`
	DurationMS    int64  `json:"duration_ms"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, req *http.Request) {
	info, err := s.r.Checkpoint()
	if err == inferray.ErrNotDurable {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.checkpoints.Add(1)
	writeJSON(w, "application/json", checkpointResponse{
		Generation:    info.Generation,
		Triples:       info.Triples,
		SnapshotBytes: info.SnapshotBytes,
		Duration:      info.Duration.String(),
		DurationMS:    info.Duration.Milliseconds(),
	})
}

// ---------------------------------------------------------------- /stats

// statsResponse is the /stats document.
type statsResponse struct {
	Triples         int              `json:"triples"`
	Pending         int              `json:"pending"`
	Fragment        string           `json:"fragment"`
	Version         string           `json:"version"`
	GoVersion       string           `json:"go_version"`
	UptimeSeconds   int64            `json:"uptime_seconds"`
	Queries         int64            `json:"queries"`
	QueryErrors     int64            `json:"query_errors"`
	QueryBytes      uint64           `json:"query_response_bytes"` // inferray_http_query_response_bytes_total
	DeltaBatches    int64            `json:"delta_batches"`
	DeltaTriples    int64            `json:"delta_triples"`
	Updates         int64            `json:"updates"`
	UpdateErrors    int64            `json:"update_errors"`
	LastMaterialize *lastMaterialize `json:"last_materialize,omitempty"`
	Durability      *durabilityInfo  `json:"durability,omitempty"`
	Hierarchy       *hierarchyInfo   `json:"hierarchy,omitempty"`
	Dictionary      dictionaryInfo   `json:"dictionary"`

	// Generation is the store generation counter (Reasoner.Generation):
	// bumped on every mutation, it keys the query-result cache and is
	// echoed on responses as X-Inferray-Generation.
	Generation  uint64           `json:"generation"`
	Cache       *qcache.Stats    `json:"cache,omitempty"`
	Ratelimit   *ratelimitStats  `json:"ratelimit,omitempty"`
	Admission   *admissionInfo   `json:"admission,omitempty"`
	Replication *replicationInfo `json:"replication,omitempty"`
}

// replicationInfo is the replication section of /stats: the leader form
// (role "leader": tail position plus shipping counters) on a durable
// server, the follower form (role "follower": the tailer's full state)
// when a Follower is attached.
type replicationInfo struct {
	Role string `json:"role"` // "leader" | "follower"

	// Leader fields.
	WALGeneration  uint64 `json:"wal_generation,omitempty"`
	WALRecords     int    `json:"wal_records,omitempty"`
	ShippedRecords uint64 `json:"shipped_records,omitempty"`
	ShippedBytes   uint64 `json:"shipped_bytes,omitempty"`
	WALRequests    uint64 `json:"wal_requests,omitempty"`
	Truncations    uint64 `json:"truncations,omitempty"`
	SnapshotShips  uint64 `json:"snapshot_ships,omitempty"`

	// Follower fields.
	Follower *FollowerStats `json:"follower,omitempty"`
}

// ratelimitStats is the rate-limiting section of /stats, present when
// either budget is enabled.
type ratelimitStats struct {
	Query  ratelimit.Stats `json:"query"`
	Update ratelimit.Stats `json:"update"`
}

// admissionInfo is the admission-control section of /stats, present
// when an in-flight cap or a query deadline is configured.
type admissionInfo struct {
	MaxInFlight      int    `json:"max_in_flight"`
	Shed             uint64 `json:"shed"`
	QueryTimeoutMS   int64  `json:"query_timeout_ms"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
}

// hierarchyInfo is the hierarchy-encoding section of /stats, present
// only while the interval encoding is active. Triples (above) counts
// the visible closure; materialized_triples the physically stored
// subset, virtual_triples the remainder the interval index answers.
type hierarchyInfo struct {
	MaterializedTriples int `json:"materialized_triples"`
	VirtualTriples      int `json:"virtual_triples"`
	Classes             int `json:"classes"`
	Properties          int `json:"properties"`
	Intervals           int `json:"intervals"`
}

// dictionaryInfo is the dictionary section of /stats and /debug/tables:
// its terms, and what they cost by part (dictionary.Footprint).
type dictionaryInfo struct {
	Terms        int     `json:"terms"`
	TermBytes    int     `json:"term_bytes"`
	ArenaBytes   int     `json:"arena_bytes"`
	RefBytes     int     `json:"ref_bytes"`
	IndexBytes   int     `json:"index_bytes"`
	BytesPerTerm float64 `json:"bytes_per_term"`
}

func dictionaryInfoOf(ms inferray.MemoryStats) dictionaryInfo {
	d := ms.Dictionary
	info := dictionaryInfo{Terms: d.Terms, TermBytes: d.TermBytes, ArenaBytes: d.ArenaBytes, RefBytes: d.RefBytes, IndexBytes: d.IndexBytes}
	if d.Terms > 0 {
		info.BytesPerTerm = float64(d.ArenaBytes+d.RefBytes+d.IndexBytes) / float64(d.Terms)
	}
	return info
}

// durabilityInfo is the persistence section of /stats, present only
// when the reasoner has a data dir.
type durabilityInfo struct {
	Dir              string `json:"dir"`
	SyncPolicy       string `json:"sync_policy"`
	Generation       uint64 `json:"generation"`
	WALRecords       int    `json:"wal_records"`
	WALBytes         int64  `json:"wal_bytes"`
	Checkpoints      int64  `json:"checkpoints"` // forced via this server
	LastCheckpointAt string `json:"last_checkpoint_at,omitempty"`
	SnapshotBytes    int64  `json:"snapshot_bytes,omitempty"`
	CheckpointError  string `json:"checkpoint_error,omitempty"`

	RecoveredFromSnapshot bool `json:"recovered_from_snapshot"`
	ReplayedRecords       int  `json:"replayed_records"`
	ReplayedTriples       int  `json:"replayed_triples"`
	TruncatedTail         bool `json:"truncated_tail"`
}

type lastMaterialize struct {
	At          string `json:"at"`
	NewInput    int    `json:"new_input"`
	Inferred    int    `json:"inferred"`
	Total       int    `json:"total"`
	Iterations  int    `json:"iterations"`
	Incremental bool   `json:"incremental"`
	Duration    string `json:"duration"`
}

func (s *Server) handleStats(w http.ResponseWriter, req *http.Request) {
	version, goVersion := inferray.Version()
	resp := statsResponse{
		Triples:       s.r.Size(),
		Pending:       s.r.Pending(),
		Fragment:      s.r.Fragment().String(),
		Version:       version,
		GoVersion:     goVersion,
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Queries:       s.queries.Load(),
		QueryErrors:   s.queryErrors.Load(),
		QueryBytes:    s.responseBytes.Value(),
		DeltaBatches:  s.deltaBatches.Load(),
		DeltaTriples:  s.deltaTriples.Load(),
		Updates:       s.updates.Load(),
		UpdateErrors:  s.updateErrors.Load(),
		Generation:    s.r.Generation(),
		Dictionary:    dictionaryInfoOf(s.r.MemoryStats(0)),
	}
	if s.cache.Enabled() {
		cs := s.cache.Snapshot()
		resp.Cache = &cs
	}
	if s.queryLimit.Enabled() || s.updateLimit.Enabled() {
		resp.Ratelimit = &ratelimitStats{
			Query:  s.queryLimit.Snapshot(),
			Update: s.updateLimit.Snapshot(),
		}
	}
	if s.admit != nil || s.cfg.QueryTimeout > 0 {
		resp.Admission = &admissionInfo{
			MaxInFlight:      s.cfg.MaxInFlight,
			Shed:             s.admShed.Value(),
			QueryTimeoutMS:   s.cfg.QueryTimeout.Milliseconds(),
			DeadlineExceeded: s.admDeadline.Value(),
		}
	}
	if hs := s.r.HierarchyStats(); hs.Encoded {
		resp.Hierarchy = &hierarchyInfo{
			MaterializedTriples: hs.MaterializedTriples,
			VirtualTriples:      hs.VirtualTriples,
			Classes:             hs.Classes,
			Properties:          hs.Properties,
			Intervals:           hs.Intervals,
		}
	}
	if ds, ok := s.r.DurabilityStats(); ok {
		info := &durabilityInfo{
			Dir:                   ds.Dir,
			SyncPolicy:            ds.SyncPolicy,
			Generation:            ds.Generation,
			WALRecords:            ds.WALRecords,
			WALBytes:              ds.WALBytes,
			Checkpoints:           s.checkpoints.Load(),
			SnapshotBytes:         ds.SnapshotBytes,
			CheckpointError:       ds.CheckpointError,
			RecoveredFromSnapshot: ds.RecoveredFromSnapshot,
			ReplayedRecords:       ds.ReplayedRecords,
			ReplayedTriples:       ds.ReplayedTriples,
			TruncatedTail:         ds.TruncatedTail,
		}
		if !ds.LastCheckpointAt.IsZero() {
			info.LastCheckpointAt = ds.LastCheckpointAt.UTC().Format(time.RFC3339)
		}
		resp.Durability = info
	}
	if s.repl != nil {
		ri := &replicationInfo{
			Role:           "leader",
			ShippedRecords: s.repl.shippedRecords.Value(),
			ShippedBytes:   s.repl.shippedBytes.Value(),
			WALRequests:    s.repl.walRequests.Value(),
			Truncations:    s.repl.truncations.Value(),
			SnapshotShips:  s.repl.snapshotShips.Value(),
		}
		if tail, err := s.r.WALTail(); err == nil {
			ri.WALGeneration, ri.WALRecords = tail.Generation, tail.Records
		}
		resp.Replication = ri
	} else if s.follower != nil {
		fs := s.follower.Stats()
		resp.Replication = &replicationInfo{Role: "follower", Follower: &fs}
	}
	s.lastMu.Lock()
	if s.hasRun {
		resp.LastMaterialize = &lastMaterialize{
			At:          s.lastAt.UTC().Format(time.RFC3339),
			NewInput:    s.last.InputTriples,
			Inferred:    s.last.InferredTriples,
			Total:       s.last.TotalTriples,
			Iterations:  s.last.Iterations,
			Incremental: s.last.Incremental,
			Duration:    s.last.TotalTime.String(),
		}
	}
	s.lastMu.Unlock()
	writeJSON(w, "application/json", resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, "application/json", map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 once the initial recovery
// and materialization finished, 503 while still loading (SetReady).
func (s *Server) handleReadyz(w http.ResponseWriter, req *http.Request) {
	if !s.ready.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "loading"})
		return
	}
	writeJSON(w, "application/json", map[string]string{"status": "ok"})
}

// --------------------------------------------------------- /debug/tables

// tablesResponse is the /debug/tables document: the dictionary's split,
// the property tables' bytes summed, and the largest tables by pairs.
type tablesResponse struct {
	Dictionary dictionaryInfo `json:"dictionary"`
	Tables     tableInfo      `json:"tables"`
	Top        []tableInfo    `json:"top"`
}

// tableInfo is one property table's bytes — or, as the total, every
// table's, with Count tables behind it.
type tableInfo struct {
	Property     string `json:"property,omitempty"`
	Count        int    `json:"count,omitempty"`
	Pairs        int    `json:"pairs"`
	PairBytes    int    `json:"pair_bytes"`
	MarkBytes    int    `json:"mark_bytes"`
	OSCacheBytes int    `json:"os_cache_bytes"`
}

// maxTop caps /debug/tables?top=N: a table listing, not a dump.
const maxTop = 1000

func (s *Server) handleDebugTables(w http.ResponseWriter, req *http.Request) {
	top := 10
	if v := req.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > maxTop {
			httpError(w, http.StatusBadRequest, "top must be an integer in [0, %d]", maxTop)
			return
		}
		top = n
	}
	ms := s.r.MemoryStats(top)
	resp := tablesResponse{
		Dictionary: dictionaryInfoOf(ms),
		Tables: tableInfo{Count: ms.Tables, Pairs: ms.Pairs,
			PairBytes: ms.PairBytes, MarkBytes: ms.MarkBytes, OSCacheBytes: ms.OSCacheBytes},
		Top: make([]tableInfo, len(ms.Top)),
	}
	for i, t := range ms.Top {
		resp.Top[i] = tableInfo{Property: t.Property, Pairs: t.Pairs,
			PairBytes: t.PairBytes, MarkBytes: t.MarkBytes, OSCacheBytes: t.OSCacheBytes}
	}
	writeJSON(w, "application/json", resp)
}

// -------------------------------------------------------------- /metrics

// handleMetrics renders the full metric surface in the Prometheus text
// exposition format: the server's HTTP families first, then everything
// the reasoner registers (reasoner, WAL, query engine, build info, Go
// runtime).
func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		return // client went away mid-scrape
	}
	_ = s.r.WriteMetrics(w)
}

// ---------------------------------------------------------------- shared

func writeJSON(w http.ResponseWriter, contentType string, v interface{}) {
	w.Header().Set("Content-Type", contentType)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing useful left to do.
		_ = err
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf(format, args...),
	})
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"time"

	"inferray"
	"inferray/internal/rdf"
	"inferray/internal/reasoner"
	"inferray/internal/rules"
	"inferray/internal/server"
)

// Fixed configuration. None of this is a flag: two result files are only
// comparable when every run used the same fragment, engine options, flush
// policy and cache sizes, so they are constants and echoed in the header.
const (
	fragmentName      = "rdfs-plus"
	parallel          = true
	hierarchyEncoding = true
	syncPolicy        = "interval" // DurabilityOptions zero value: group commit
	syncIntervalMS    = 50
	queryCacheEntries = 0 // lubm_query: every request is evaluated
	queryClients      = 2 // lubm_query: closed loop, = nproc
	churnWriters      = 1 // lubm_churn: one writer ...
	churnReaders      = 1 // ... beside one closed-loop reader
	lubmNS            = "http://example.org/lubm/"
)

func reasonerOptions() []inferray.Option {
	return []inferray.Option{
		inferray.WithFragment(inferray.RDFSPlus),
		inferray.WithParallelism(parallel),
		inferray.WithHierarchyEncoding(hierarchyEncoding),
	}
}

func engineOptions() reasoner.Options {
	return reasoner.Options{Fragment: rules.RDFSPlus, Parallel: parallel, HierarchyEncoding: hierarchyEncoding}
}

// sizes fixes every count of a run. Dataset sizes are constants of the
// benchmark; the per-workload script lengths scale with -seconds from
// rates calibrated on the commit that introduced the harness, so one
// (seed, seconds) pair always names the same script.
type sizes struct {
	LUBMTriples  int // datagen target for lubm_ingest and lubm_query
	YagoScale    int // datagen.YagoLike scale for taxonomy_infer
	ChurnTriples int // datagen target for lubm_churn

	IngestWarm, IngestIters int
	TaxWarm, TaxIters       int
	Queries                 int // lubm_query requests
	ChurnOps                int // lubm_churn single-triple updates
	SetupReps               int // set-ups per run; setup_s is their median
	RestartReps             int // image reloads per run; restart_s is their median
	ReopenReps              int // lubm_churn: durable reopens per run

	// Traced passes.
	TraceIters  int    // hand-built batch iterations (and as many reference ones)
	ClassReps   [3]int // per query class repetitions: cheap, medium, heavy
	TraceOps    int    // update ops through each write-path layer
	ProbeRounds int    // repetitions of the small layer probes (sort, closure, ...)
}

func fullSizes(seconds int) sizes {
	s := float64(seconds)
	atLeast := func(min int, v float64) int {
		if int(v) < min {
			return min
		}
		return int(v)
	}
	return sizes{
		LUBMTriples: 1_000_000, YagoScale: 20, ChurnTriples: 250_000,
		IngestWarm: 1, IngestIters: atLeast(3, s*1.0),
		TaxWarm: 1, TaxIters: atLeast(3, s*0.5),
		Queries:   atLeast(200, s*100),
		ChurnOps:  atLeast(40, s*40) / 4 * 4,
		SetupReps: 3, RestartReps: 7, ReopenReps: 3,
		TraceIters:  atLeast(2, s*0.3),
		ClassReps:   [3]int{atLeast(20, s*10), atLeast(5, s*1.5), atLeast(2, s*0.4)},
		TraceOps:    atLeast(40, s*20) / 4 * 4,
		ProbeRounds: 5,
	}
}

// smokeSizes is what bench_test.go runs: every code path, seconds not
// minutes.
func smokeSizes() sizes {
	return sizes{
		LUBMTriples: 20_000, YagoScale: 1, ChurnTriples: 20_000,
		IngestWarm: 1, IngestIters: 3,
		TaxWarm: 1, TaxIters: 3,
		Queries: 200, ChurnOps: 40,
		SetupReps: 1, RestartReps: 1, ReopenReps: 1,
		TraceIters: 2, ClassReps: [3]int{10, 4, 2}, TraceOps: 40, ProbeRounds: 2,
	}
}

// env is what one workload run sees.
type env struct {
	seed    int64
	sz      sizes
	scratch string  // directory for durable dirs and images, inside the checkout
	tr      *tracer // span sink of the traced passes
}

// check is one correctness assertion made inside a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is one workload's outcome. EndToEnd comes from the untraced
// run only; PerLayer from the traced one only.
type result struct {
	Workload  string           `json:"workload"`
	WallS     float64          `json:"wall_s"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Checks    []check          `json:"checks"`
	EndToEnd  metrics          `json:"end_to_end,omitempty"`
	PerLayer  metrics          `json:"per_layer,omitempty"`
	Exact     map[string]int64 `json:"exact,omitempty"`
	Derived   map[string]any   `json:"derived,omitempty"`
}

func newResult(name string) *result {
	return &result{Workload: name, EndToEnd: metrics{}, PerLayer: metrics{}, Exact: map[string]int64{}, Derived: map[string]any{}}
}

// op counts n attempted operations of which failed failed.
func (r *result) op(n, failed int) {
	r.Attempted += n
	r.Failed += failed
}

// verify records a correctness check; a failed one counts as a failed
// operation.
func (r *result) verify(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
	r.op(1, b2i(!ok))
}

// exact records a per-layer count that must repeat bit-for-bit.
func (r *result) exact(name string, v int64) {
	r.Exact[name] = v
	r.PerLayer.set(name, float64(v), "count")
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// liveHeap forces collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func heapPerTriple(before, after uint64, triples int) float64 {
	if after < before || triples == 0 {
		return 0
	}
	return float64(after-before) / float64(triples)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func serialize(triples []rdf.Triple) ([]byte, error) {
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, triples); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// materialized builds an in-memory root-path reasoner over triples.
func materialized(triples []rdf.Triple) (*inferray.Reasoner, inferray.Stats, error) {
	r := inferray.New(reasonerOptions()...)
	r.AddTriples(triples)
	st, err := r.Materialize()
	return r, st, err
}

// restart measures the path from a persisted closure back to the first
// answered probe, reps times, and checks the reloaded closure against
// want on the first round.
func restart(res *result, reps int, want digest, open func() (*inferray.Reasoner, error), probe rdf.Triple) ([]float64, error) {
	var samples []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // the previous round's reasoner is not this round's cost
		start := time.Now()
		r, err := open()
		if err != nil {
			return nil, err
		}
		held := r.Holds(probe.S, probe.P, probe.O)
		samples = append(samples, time.Since(start).Seconds())
		res.op(1, b2i(!held))
		if i == 0 {
			got := digestOf(r)
			res.verify("restart_digest", got == want, "reloaded closure %+v, want %+v", got, want)
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
	}
	return samples, nil
}

// imageRestart saves r as an image under dir and times reloading it.
func imageRestart(res *result, e *env, r *inferray.Reasoner, want digest, probe rdf.Triple) ([]float64, error) {
	path := e.scratch + "/" + res.Workload + ".img"
	if err := r.SaveImage(path); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	return restart(res, e.sz.RestartReps, want, func() (*inferray.Reasoner, error) {
		return inferray.LoadImage(path, reasonerOptions()...)
	}, probe)
}

// liveServer is an internal/server instance listening on loopback in
// this process.
type liveServer struct {
	url    string
	cancel context.CancelFunc
	done   chan error
	hc     *http.Client
}

func serve(r *inferray.Reasoner, cfg server.Config, clients int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveServer{
		url:    "http://" + ln.Addr().String(),
		cancel: cancel,
		done:   make(chan error, 1),
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}},
	}
	srv := server.NewWithConfig(r, cfg)
	go func() { ls.done <- srv.Serve(ctx, ln) }()
	return ls, nil
}

// stop shuts the server down and waits for its goroutines.
func (ls *liveServer) stop() error {
	ls.hc.CloseIdleConnections()
	ls.cancel()
	return <-ls.done
}

// client is one closed-loop HTTP client: it owns its response buffer, so
// a goroutine per client shares nothing but the transport.
type client struct {
	ls  *liveServer
	buf bytes.Buffer
}

// reply is a fully read response; body aliases the client's buffer until
// its next request.
type reply struct {
	status int
	cache  string // X-Inferray-Cache
	body   []byte
	took   time.Duration
}

func (c *client) do(req *http.Request) (reply, error) {
	start := time.Now()
	resp, err := c.ls.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Inferray-Cache"), body: c.buf.Bytes(), took: took}, nil
}

func (c *client) query(text string) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, c.ls.url+"/query?query="+url.QueryEscape(text), nil)
	if err != nil {
		return reply{}, err
	}
	return c.do(req)
}

func (c *client) post(path, contentType, body string) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.ls.url+path, strings.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return c.do(req)
}

// resultRows counts the bindings of a sparql-results+json body without
// decoding it: every bound variable is one object whose first key is
// "type", and a '"' inside a JSON string is always escaped, so the
// quoted key cannot occur in a value. vars is the projection width; the
// benchmark's queries bind every projected variable in every row.
func resultRows(body []byte, vars int) int {
	return bytes.Count(body, []byte(`"type"`)) / vars
}

func askTrue(body []byte) bool { return bytes.Contains(body, []byte("true")) }

func lubm(local string) string { return "<" + lubmNS + local + ">" }

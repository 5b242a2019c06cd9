// Command bench is the repository's one benchmark: four workloads over
// the whole pipeline, end-to-end metrics from an untraced run, per-layer
// metrics from a traced run that times the calls into each package's
// public functions from here. See README.md for the metric dictionary
// and the A/A procedure, and ../BENCHMARK.json for the driver contract.
//
//	go run ./bench                       all workloads, report to bench/out/report.json
//	go run ./bench -trace 1              ... plus the traced pass and bench/out/trace.json
//	go run ./bench -workload lubm_query  one workload; last stdout line is the driver's JSON
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"inferray/internal/server"
)

// workload is one named set of inputs and the two ways of running it.
type workload struct {
	name    string
	why     string
	clients int // concurrent load-generating goroutines
	run     func(*env) (*result, error)
	trace   func(*env) (*result, error)
}

var workloads = []workload{
	{"lubm_ingest", "LUBM-1M bytes to queryable closure: parse, dictionary encode and store append are about half the wall, inference under 40%", 1,
		lubmIngest.run, lubmIngest.trace},
	{"taxonomy_infer", "Yago-like taxonomy whose closure is 25x its input: 90% of the wall is rule firing, merge and sort; the no-change control for ingest work", 1,
		taxonomyInfer.run, taxonomyInfer.trace},
	{"lubm_query", "closed-loop 70/20/10 cheap/medium/heavy SPARQL mix over HTTP, cache off: plan, walk, row decode, serialize; no reasoner work", queryClients,
		runQuery, traceQuery},
	{"lubm_churn", "single-triple INSERT/DELETE over a durable server beside a cached reader: incremental fixpoint, DRed, WAL, checkpoints, recovery", churnWriters + churnReaders,
		runChurn, traceChurn},
}

type workloadInfo struct {
	Why     string `json:"why"`
	Clients int    `json:"clients"`
	Loop    string `json:"loop"`
}

// header says what produced a report, so two reports are only compared
// when they describe the same experiment.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Fixed      struct {
		Fragment          string `json:"fragment"`
		Parallelism       bool   `json:"parallelism"`
		HierarchyEncoding bool   `json:"hierarchy_encoding"`
		Sync              string `json:"sync"`
		SyncIntervalMS    int    `json:"sync_interval_ms"`
		QueryCacheEntries int    `json:"lubm_query_cache_entries"`
		ChurnCacheEntries int    `json:"lubm_churn_cache_entries"`
	} `json:"fixed"`
	Sizes     sizes                   `json:"sizes"`
	Workloads map[string]workloadInfo `json:"workloads"`
}

// report is the -out file: every repetition of every workload.
type report struct {
	Header header               `json:"header"`
	Runs   []map[string]*result `json:"runs"`
}

func newHeader(seed int64, seconds int, traced bool, sz sizes) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Traced: traced, Sizes: sz,
		Workloads: map[string]workloadInfo{},
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.Fixed.Fragment, h.Fixed.Parallelism, h.Fixed.HierarchyEncoding = fragmentName, parallel, hierarchyEncoding
	h.Fixed.Sync, h.Fixed.SyncIntervalMS = syncPolicy, syncIntervalMS
	h.Fixed.QueryCacheEntries, h.Fixed.ChurnCacheEntries = queryCacheEntries, server.DefaultConfig().CacheEntries
	for _, w := range workloads {
		h.Workloads[w.name] = workloadInfo{Why: w.why, Clients: w.clients, Loop: "closed"}
	}
	return h
}

// runWorkload runs w untraced and, when traced, once more layer by
// layer; the end-to-end numbers only ever come from the first.
func runWorkload(w workload, e *env, untraced, traced bool) (*result, error) {
	res := newResult(w.name)
	start := time.Now()
	if untraced {
		r, err := w.run(e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res = r
	}
	if traced {
		e.tr.workload = w.name
		t, err := w.trace(e)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		res.PerLayer, res.Exact = t.PerLayer, t.Exact
		res.Checks = append(res.Checks, t.Checks...)
		res.op(t.Attempted, t.Failed)
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

func printResult(res *result) {
	fmt.Printf("== %s  wall %.1fs  attempted %d  failed %d  error_rate %g\n",
		res.Workload, res.WallS, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Printf("   CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	printMetrics := func(m metrics) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := m[name]
			line := fmt.Sprintf("   %-36s %14.6g %s", name, v.Value, v.Unit)
			if v.N > 0 {
				line += fmt.Sprintf("   (n=%d, q1 %.6g, q3 %.6g)", v.N, v.Q1, v.Q3)
			}
			fmt.Println(line)
		}
	}
	printMetrics(res.EndToEnd)
	printMetrics(res.PerLayer)
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output. It lists every catalogued metric of its kind; a
// layer off the workload's path reads 0.
func driverLine(res *result, traced bool) string {
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics{}}
	src, defs := res.EndToEnd, endToEnd
	if traced {
		src, defs = res.PerLayer, perLayer
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metric{Value: src[d.Name].Value, Unit: d.Unit}
	}
	line, _ := json.Marshal(out)
	return string(line)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the driver's JSON line (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of every generated input and script")
		seconds = flag.Int("seconds", 10, "script length: op counts scale from rates calibrated to about this many seconds")
		traced  = flag.Int("trace", 0, "1: run the traced layer-by-layer pass (with -workload: only that pass)")
		runs    = flag.Int("runs", 1, "repetitions of the whole set, for the A/A spread")
		out     = flag.String("out", "", "report file (default bench/out/report.json when running all workloads)")
		compare = flag.Bool("compare", false, "compare two report files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareReports(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json"))
	}
	code, err := benchmark(*name, *seed, *seconds, *traced == 1, *runs, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func benchmark(name string, seed int64, seconds int, traced bool, runs int, out string) (int, error) {
	selected := workloads
	if name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return 0, fmt.Errorf("unknown workload %q", name)
		}
	} else if out == "" {
		out = "bench/out/report.json"
	}
	if seconds < 1 || runs < 1 {
		return 0, fmt.Errorf("-seconds and -runs must be at least 1")
	}
	for _, w := range selected {
		if w.clients > runtime.NumCPU() {
			return 0, fmt.Errorf("%s drives %d clients but the machine has %d CPUs: the load generator would compete with itself", w.name, w.clients, runtime.NumCPU())
		}
	}
	scratch, err := filepath.Abs(fmt.Sprintf("bench/out/tmp-%d", os.Getpid()))
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(scratch)

	e := &env{seed: seed, sz: fullSizes(seconds), scratch: scratch, tr: newTracer()}
	rep := report{Header: newHeader(seed, seconds, traced, e.sz)}
	failed := 0
	var last *result
	for i := 0; i < runs; i++ {
		set := map[string]*result{}
		for _, w := range selected {
			// The driver asks for one kind of metric per invocation; a
			// full run reports both.
			res, err := runWorkload(w, e, name == "" || !traced, traced)
			if err != nil {
				return 0, err
			}
			printResult(res)
			set[w.name] = res
			failed += res.Failed
			last = res
		}
		rep.Runs = append(rep.Runs, set)
	}
	if traced {
		if err := e.tr.write("bench/out/trace.json"); err != nil {
			return 0, err
		}
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return 0, err
		}
	}
	if name != "" {
		fmt.Println(driverLine(last, traced))
	}
	if failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// Command inferray is the stand-alone reasoner: it reads an RDF
// document (N-Triples or Turtle), materializes its closure under a
// chosen rule fragment, and writes the result as N-Triples — or, with
// the serve subcommand, keeps the closure in memory and answers SPARQL
// over HTTP while accepting incremental deltas.
//
// Usage:
//
//	inferray -rules rdfs-plus -in data.nt -out closure.nt
//	cat data.ttl | inferray -format turtle -rules rhodf > closure.nt
//	inferray -in base.nt -delta day1.nt -delta day2.nt -stats > closure.nt
//	inferray -in big.nt -save-image closure.img -quiet
//	inferray -load-image closure.img -select 'SELECT ?s WHERE { ?s ?p ?o }'
//	inferray -in data.nt -select 'SELECT ?d (COUNT(*) AS ?n) WHERE { ?x <worksFor> ?d } GROUP BY ?d'
//	inferray serve -addr :7070 -rules rdfs-plus -in base.nt
//	inferray serve -addr :7070 -data-dir /var/lib/inferray -sync always
//	inferray checkpoint -addr localhost:7070
//	inferray update -addr localhost:7070 -update 'DELETE DATA { <s> <p> <o> }'
//
// Each -delta file (repeatable, applied in order) is loaded after the
// initial materialization and materialized incrementally: the fixpoint
// is seeded with only the new triples, and the final output is the
// closure of the union — identical to concatenating all inputs, but
// without recomputing the already-derived closure.
//
// With -stats, run statistics (input/inferred counts, iteration count,
// rules fired/skipped by the dependency scheduler, and the phase times
// parse, encode, normalize, closure, loop, and wall= for bytes in to
// closure) are printed to stderr, one line per materialization.
//
// -save-image persists the materialized closure as a compact binary
// snapshot; -load-image restores one instead of re-running inference —
// the paper's offline-materialize/online-serve split as two commands.
//
// serve materializes the input (if any) and then listens on -addr:
// GET /query answers SPARQL SELECT and ASK (the dialect of
// docs/SPARQL.md — FILTER, DISTINCT, ORDER BY, LIMIT/OFFSET, UNION) as
// streamed application/sparql-results+json,
// POST /triples stages an N-Triples delta and extends the closure
// incrementally, POST /update executes SPARQL UPDATE (INSERT DATA,
// DELETE DATA, DELETE WHERE — deletions maintain the closure by
// delete-rederive; the update subcommand is an HTTP client for it),
// GET /stats and GET /healthz report state, GET /readyz reports 503
// until the initial load and materialization finished, and GET
// /metrics exposes Prometheus text metrics for every layer (HTTP,
// reasoner, WAL, query engine). -slow-query-ms logs queries over a
// threshold as structured records; -pprof mounts net/http/pprof under
// /debug/pprof/. The serving tier is tunable per flag: -cache-entries,
// -cache-bytes, and -cache-entry-bytes size the generation-keyed
// query-result cache, -query-rps/-query-burst and
// -update-rps/-update-burst rate-limit clients per IP (429 +
// Retry-After; -trust-forwarded keys on X-Forwarded-For), and
// -max-in-flight plus -query-timeout shed overload with 503/504 — see
// the serve-flag table in README.md.
// The top-level -version flag prints build information.
// SIGINT or SIGTERM shuts the server down gracefully. With -data-dir the server
// is durable: every accepted delta is written to a write-ahead log
// before it is applied (-sync picks the fsync policy), checkpoints
// rotate the log into snapshot images, and a restart — even after
// kill -9 — recovers the exact closure. POST /checkpoint (or the
// checkpoint subcommand, an HTTP client for it) forces a checkpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"inferray"
	"inferray/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "inferray:", err)
		os.Exit(1)
	}
}

// isTurtleInput resolves the input syntax from the -format flag and the
// file path's extension; the batch and serve paths share it so format
// detection cannot diverge between the two modes.
func isTurtleInput(format, path string) (bool, error) {
	switch format {
	case "turtle", "ttl":
		return true, nil
	case "nt", "ntriples":
		return false, nil
	case "":
		return strings.HasSuffix(path, ".ttl") || strings.HasSuffix(path, ".turtle"), nil
	}
	return false, fmt.Errorf("unknown format %q", format)
}

// loadInput buffers one RDF document into the reasoner: path "-" reads
// stdin, anything else opens the file; the syntax comes from
// isTurtleInput. Batch mode (base and every -delta) and serve mode all
// load through here so their input handling cannot drift.
func loadInput(r *inferray.Reasoner, path, format string, stdin io.Reader) error {
	in := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	turtle, err := isTurtleInput(format, path)
	if err != nil {
		return err
	}
	if turtle {
		return r.LoadTurtle(in)
	}
	return r.LoadNTriples(in)
}

// multiFlag collects a repeatable string flag in order.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// run executes the CLI with explicit streams so tests can drive it.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			return runServe(ctx, args[1:], stdin, stderr)
		case "checkpoint":
			return runCheckpoint(ctx, args[1:], stdout, stderr)
		case "update":
			return runUpdate(ctx, args[1:], stdin, stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("inferray", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var deltas multiFlag
	var (
		version   = fs.Bool("version", false, "print version information and exit")
		rulesFlag = fs.String("rules", "rdfs-default", "rule fragment: rhodf | rdfs-default | rdfs-full | rdfs-plus | rdfs-plus-full")
		inFlag    = fs.String("in", "-", "input file ('-' for stdin)")
		outFlag   = fs.String("out", "-", "output N-Triples file ('-' for stdout)")
		format    = fs.String("format", "", "input format: nt | turtle (default: by file extension, nt otherwise)")
		stats     = fs.Bool("stats", false, "print run statistics to stderr; per round, maintain= is θ closing plus hierarchy upkeep after the merge")
		seq       = fs.Bool("sequential", false, "fire rules, merge, normalize and intern on one goroutine (a long N-Triples input is still parsed on several)")
		quiet     = fs.Bool("quiet", false, "suppress triple output (measure only)")
		selectQ   = fs.String("select", "", "run a SPARQL SELECT or ASK query over the closure instead of dumping triples (dialect: docs/SPARQL.md)")
		saveImage = fs.String("save-image", "", "write the materialized closure as a binary snapshot image")
		loadImage = fs.String("load-image", "", "restore a snapshot image instead of inferring from scratch (-in is then only read if given explicitly)")
	)
	fs.Var(&deltas, "delta", "delta file to load and materialize incrementally after the initial run (repeatable, applied in order)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		v, gv := inferray.Version()
		fmt.Fprintf(stdout, "inferray %s (%s)\n", v, gv)
		return nil
	}

	fragment, err := inferray.ParseFragment(*rulesFlag)
	if err != nil {
		return err
	}

	if _, err := isTurtleInput(*format, ""); err != nil {
		return err
	}

	// With -load-image the default stdin input is skipped: the image is
	// the base. An explicit -in is still loaded on top as a delta.
	inExplicit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "in" {
			inExplicit = true
		}
	})

	var r *inferray.Reasoner
	opts := []inferray.Option{
		inferray.WithFragment(fragment),
		inferray.WithParallelism(!*seq),
	}
	if *loadImage != "" {
		r, err = inferray.LoadImage(*loadImage, opts...)
		if err != nil {
			return err
		}
	} else {
		r = inferray.New(opts...)
	}
	var seen inferray.MetricsSnapshot
	printStats := func(st inferray.Stats, batch string) {
		if !*stats {
			return
		}
		fmt.Fprintf(stderr,
			"fragment=%s batch=%s incremental=%t input=%d inferred=%d total=%d materialized=%d virtual=%d encoded=%t iterations=%d fired=%d skipped=%d parse=%s encode=%s normalize=%s closure=%s loop=%s count=%s wall=%s\n",
			fragment, batch, st.Incremental, st.InputTriples, st.InferredTriples,
			st.TotalTriples, st.MaterializedTriples, st.VirtualTriples, st.HierarchyEncoded,
			st.Iterations, st.RulesFired, st.RulesSkipped,
			st.ParseTime, st.EncodeTime, st.NormalizeTime, st.ClosureTime, st.LoopTime, st.CountTime,
			st.ParseTime+st.EncodeTime+st.TotalTime) // bytes in → closure
		for i, r := range st.Rounds {
			fmt.Fprintf(stderr, "  round=%d batch=%s fired=%d skipped=%d emitted=%d new=%d rules=%s merge=%s maintain=%s\n",
				i+1, batch, r.RulesFired, r.RulesSkipped, r.Emitted, r.NewTriples,
				r.RulesTime, r.MergeTime, r.MaintainTime)
		}
		// What this batch cost the store: an incremental batch that is small
		// against its tables should read rebuild=0 and os_dropped=0 on every
		// table long enough to splice (DESIGN.md §7).
		m := r.Metrics()
		fmt.Fprintf(stderr, "  store batch=%s splice=%d rebuild=%d os_built=%d os_patched=%d os_dropped=%d\n",
			batch, m.MergesSplice-seen.MergesSplice, m.MergesRebuild-seen.MergesRebuild,
			m.OSCacheBuilt-seen.OSCacheBuilt, m.OSCachePatched-seen.OSCachePatched,
			m.OSCacheDropped-seen.OSCacheDropped)
		seen = m
		// What the dictionary holds after this batch, by part (the split
		// GET /debug/tables serves).
		d := r.MemoryStats(0).Dictionary
		fmt.Fprintf(stderr, "  dict batch=%s terms=%d term_bytes=%d arena_bytes=%d ref_bytes=%d index_bytes=%d\n",
			batch, d.Terms, d.TermBytes, d.ArenaBytes, d.RefBytes, d.IndexBytes)
	}

	if *loadImage == "" || inExplicit {
		if err := loadInput(r, *inFlag, *format, stdin); err != nil {
			return err
		}
	}
	st, err := r.Materialize()
	if err != nil {
		return err
	}
	printStats(st, "initial")

	// Each delta file extends the closure incrementally.
	for _, path := range deltas {
		if err := loadInput(r, path, *format, stdin); err != nil {
			return err
		}
		st, err := r.Materialize()
		if err != nil {
			return err
		}
		printStats(st, path)
	}
	if *saveImage != "" {
		// SaveImage is atomic (temp + fsync + rename): a failed save
		// never tears an existing image at the path.
		if err := r.SaveImage(*saveImage); err != nil {
			return err
		}
		if *stats {
			if fi, err := os.Stat(*saveImage); err == nil {
				fmt.Fprintf(stderr, "image=%s bytes=%d triples=%d\n", *saveImage, fi.Size(), r.Size())
			}
		}
	}
	if *selectQ != "" {
		// SELECT prints one row per line, columns in projection order;
		// ASK prints true or false.
		var vars []string
		res, err := r.Exec(context.Background(), *selectQ, 0,
			func(v []string) { vars = v },
			func(row inferray.Row) bool {
				first := true
				for i, v := range vars {
					val, ok := row.Term(i)
					if !ok {
						continue // unbound in this UNION branch
					}
					if !first {
						fmt.Fprint(stdout, "\t")
					}
					fmt.Fprintf(stdout, "%s=%s", v, val)
					first = false
				}
				fmt.Fprintln(stdout)
				return true
			})
		if err != nil {
			return err
		}
		if res.Ask {
			fmt.Fprintln(stdout, res.Truth)
		}
		return nil
	}
	if *quiet {
		return nil
	}

	out := stdout
	if *outFlag != "-" {
		f, err := os.Create(*outFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return r.WriteNTriples(out)
}

// runServe implements the serve subcommand: recover or materialize the
// base closure, then answer SPARQL over HTTP and accept incremental
// deltas until ctx is canceled (SIGINT/SIGTERM in main). With
// -data-dir every accepted delta is WAL-logged before it is applied and
// the closure survives any crash.
func runServe(ctx context.Context, args []string, stdin io.Reader, stderr io.Writer) error {
	fs := flag.NewFlagSet("inferray serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":7070", "listen address")
		rulesFlag = fs.String("rules", "rdfs-default", "rule fragment: rhodf | rdfs-default | rdfs-full | rdfs-plus | rdfs-plus-full")
		inFlag    = fs.String("in", "", "initial dataset to materialize before serving ('-' for stdin, empty to start with nothing)")
		format    = fs.String("format", "", "input format: nt | turtle (default: by file extension, nt otherwise)")
		seq       = fs.Bool("sequential", false, "fire rules, merge, normalize and intern on one goroutine (a long N-Triples input is still parsed on several)")
		loadImage = fs.String("load-image", "", "restore a snapshot image as the base closure (offline materialize, online serve)")

		dataDir   = fs.String("data-dir", "", "enable durability: WAL + snapshot rotation + crash recovery under this directory")
		syncFlag  = fs.String("sync", "interval", "WAL fsync policy: always | interval | none (with -data-dir)")
		ckptBytes = fs.Int64("checkpoint-bytes", 0, "auto-checkpoint once the WAL exceeds this many bytes (0 = 64MiB default, negative disables)")
		ckptRecs  = fs.Int("checkpoint-records", 0, "auto-checkpoint once the WAL holds this many batches (0 = 4096 default, negative disables)")

		follow = fs.String("follow", "", "follower mode: replicate from the leader at this base URL (read-only; exclusive with -data-dir/-in/-load-image)")

		slowMS    = fs.Int("slow-query-ms", 0, "log queries slower than this many milliseconds as structured slow-query records (0 disables)")
		pprofFlag = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the serve mux")

		cacheEntries   = fs.Int("cache-entries", 1024, "query-result cache capacity in entries (0 disables the cache)")
		cacheBytes     = fs.Int64("cache-bytes", 0, "query-result cache byte budget (0 = 64MiB default)")
		cacheEntryMax  = fs.Int64("cache-entry-bytes", 0, "largest cacheable response body in bytes (0 = 4MiB default)")
		queryRPS       = fs.Float64("query-rps", 0, "per-client /query rate limit in requests per second (0 disables)")
		queryBurst     = fs.Int("query-burst", 10, "per-client /query token-bucket capacity (with -query-rps)")
		updateRPS      = fs.Float64("update-rps", 0, "per-client /update and /triples rate limit in requests per second (0 disables)")
		updateBurst    = fs.Int("update-burst", 5, "per-client write token-bucket capacity (with -update-rps)")
		trustForwarded = fs.Bool("trust-forwarded", false, "rate-limit on the first X-Forwarded-For address (only behind a proxy that overwrites it)")
		maxInFlight    = fs.Int("max-in-flight", 0, "admit at most this many concurrent queries, shedding excess with 503 (0 = unlimited)")
		queryTimeout   = fs.Duration("query-timeout", 0, "abort queries exceeding this evaluation deadline with 504 (0 disables)")
		maxBodyBytes   = fs.Int64("max-body-bytes", 64<<20, "largest accepted write request body in bytes (413 beyond it; negative = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fragment, err := inferray.ParseFragment(*rulesFlag)
	if err != nil {
		return err
	}
	leaderURL := ""
	if *follow != "" {
		if *dataDir != "" || *inFlag != "" || *loadImage != "" {
			return fmt.Errorf("serve: -follow is exclusive with -data-dir, -in, and -load-image (a follower's state comes from the leader)")
		}
		leaderURL = *follow
		if !strings.Contains(leaderURL, "://") {
			leaderURL = "http://" + leaderURL
		}
		leaderURL = strings.TrimRight(leaderURL, "/")
	}
	opts := []inferray.Option{
		inferray.WithFragment(fragment),
		inferray.WithParallelism(!*seq),
	}
	if *slowMS > 0 {
		opts = append(opts, inferray.WithSlowQueryLog(time.Duration(*slowMS)*time.Millisecond, nil))
	}
	if *dataDir != "" {
		opts = append(opts, inferray.WithDurability(*dataDir, inferray.DurabilityOptions{
			Sync:              *syncFlag,
			CheckpointBytes:   *ckptBytes,
			CheckpointRecords: *ckptRecs,
		}))
	}

	var r *inferray.Reasoner
	if *loadImage != "" {
		if *dataDir != "" {
			return fmt.Errorf("serve: -load-image and -data-dir are exclusive (the data dir has its own images)")
		}
		r, err = inferray.LoadImage(*loadImage, opts...)
		if err != nil {
			return err
		}
	} else {
		r, err = inferray.Open(opts...)
		if err != nil {
			return err
		}
	}
	defer r.Close()

	// The listener is bound and serving before the initial dataset is
	// loaded and materialized: /healthz answers immediately and /readyz
	// reports 503 until the closure is ready, so orchestrators can
	// probe a server that is still absorbing a large base dataset.
	srv := server.NewWithConfig(r, server.Config{
		CacheEntries:    *cacheEntries,
		CacheBytes:      *cacheBytes,
		CacheEntryBytes: *cacheEntryMax,
		QueryRPS:        *queryRPS,
		QueryBurst:      *queryBurst,
		UpdateRPS:       *updateRPS,
		UpdateBurst:     *updateBurst,
		TrustForwarded:  *trustForwarded,
		MaxInFlight:     *maxInFlight,
		QueryTimeout:    *queryTimeout,
		MaxBodyBytes:    *maxBodyBytes,
		ReadOnly:        leaderURL != "",
		LeaderURL:       leaderURL,
	})
	srv.SetReady(false)
	if *pprofFlag {
		srv.EnablePprof()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(sctx, ln) }()
	// fail tears the already-serving listener down before surfacing a
	// load error, so run() never leaks the goroutine.
	fail := func(err error) error {
		cancel()
		<-errc
		return err
	}

	if leaderURL != "" {
		// Follower mode: bootstrap from the leader's newest snapshot
		// image, tail its WAL forever, and serve read-only. The serving
		// line is printed only after the first bootstrap so the scanner
		// pattern ("inferray: serving ... on <addr>") still means "this
		// replica holds a closure worth querying".
		f, err := srv.NewFollower(server.FollowerOptions{LeaderURL: leaderURL})
		if err != nil {
			return fail(err)
		}
		go func() { _ = f.Run(sctx) }()
		fmt.Fprintf(stderr, "inferray: following %s (read-only replica)\n", leaderURL)
		select {
		case <-f.Ready():
		case err := <-errc:
			return err
		case <-sctx.Done():
			return <-errc
		}
		srv.SetReady(true)
		fmt.Fprintf(stderr, "inferray: serving %s closure (%d triples, replicated from %s) on %s\n",
			fragment, r.Size(), leaderURL, ln.Addr())
		return <-errc
	}

	recovered := false
	if ds, ok := r.DurabilityStats(); ok && (ds.RecoveredFromSnapshot || ds.ReplayedRecords > 0 || ds.TruncatedTail) {
		// A truncated tail alone (no image, no replayed records — e.g. a
		// first boot that crashed before its only batch was flushed)
		// recovered nothing, so it must not suppress -in seeding below.
		recovered = ds.RecoveredFromSnapshot || ds.ReplayedRecords > 0
		fmt.Fprintf(stderr,
			"inferray: recovered data dir %s: snapshot=%t gen=%d replayed=%d records (%d triples) truncated_tail=%t\n",
			ds.Dir, ds.RecoveredFromSnapshot, ds.RecoveredGeneration,
			ds.ReplayedRecords, ds.ReplayedTriples, ds.TruncatedTail)
	}
	if *inFlag != "" {
		// -in seeds a durable dir only on first boot: a recovered dir
		// already absorbed it (re-loading would be harmless for the
		// closure but would append a duplicate WAL record per restart).
		if recovered {
			fmt.Fprintf(stderr, "inferray: data dir already holds state; skipping -in %s (POST /triples to extend)\n", *inFlag)
		} else if err := loadInput(r, *inFlag, *format, stdin); err != nil {
			return fail(err)
		}
	}
	st, err := r.Materialize()
	if err != nil {
		return fail(err)
	}
	if ds, ok := r.DurabilityStats(); ok {
		// The WAL tail position is the replication coordinate followers
		// stream from; logging it with the recovered generation makes
		// "where did this process resume" greppable after any restart.
		if tail, err := r.WALTail(); err == nil {
			fmt.Fprintf(stderr,
				"inferray: durable dir=%s generation=%d wal_tail=%s wal_bytes=%d store_generation=%d sync=%s\n",
				ds.Dir, tail.Generation, tail, ds.WALBytes, r.Generation(), ds.SyncPolicy)
		}
	}
	srv.SetReady(true)
	fmt.Fprintf(stderr, "inferray: serving %s closure (%d triples, %d inferred) on %s\n",
		fragment, r.Size(), st.InferredTriples, ln.Addr())
	return <-errc
}

// runUpdate implements the update subcommand: an HTTP client for a
// running server's POST /update. The request comes from -update or,
// when the flag is empty, from all of stdin — so both one-liners and
// files work; the server's body limit is the only bound:
//
//	inferray update -addr localhost:7070 -update 'DELETE DATA { <s> <p> <o> }'
//	inferray update < batch.ru
func runUpdate(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("inferray update", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:7070", "address of the running inferray serve instance")
	text := fs.String("update", "", "SPARQL UPDATE request (INSERT DATA, DELETE DATA, DELETE WHERE; empty = read from stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	body := *text
	if body == "" {
		raw, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		body = string(raw)
	}
	if strings.TrimSpace(body) == "" {
		return fmt.Errorf("update: empty request (pass -update or pipe the request on stdin)")
	}
	u := *addr
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u+"/update", strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/sparql-update")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("update: server returned %s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
	if len(out) == 0 || out[len(out)-1] != '\n' {
		out = append(out, '\n')
	}
	_, err = stdout.Write(out)
	return err
}

// runCheckpoint implements the checkpoint subcommand: an HTTP client
// for a running server's admin POST /checkpoint.
func runCheckpoint(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("inferray checkpoint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:7070", "address of the running inferray serve instance")
	if err := fs.Parse(args); err != nil {
		return err
	}
	u := *addr
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u+"/checkpoint", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkpoint: server returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		body = append(body, '\n')
	}
	_, err = stdout.Write(body)
	return err
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"inferray"
	"inferray/internal/datagen"
	"inferray/internal/rdf"
	"inferray/internal/reasoner"
	"inferray/internal/server"
	"inferray/internal/sparql"
	"inferray/internal/wal"
)

// churnOp is one single-triple SPARQL UPDATE.
type churnOp struct {
	insert bool
	triple rdf.Triple
	text   string
}

func ntLine(t rdf.Triple) string { return t.S + " " + t.P + " " + t.O + " .\n" }

// churnPredicates are the instance properties the script touches. The
// reader's hot pool queries none of them (nor anything they entail), so
// its expected row counts hold while the writer runs.
var churnPredicates = []string{lubm("takesCourse"), lubm("memberOf"), lubm("advisor")}

// churnScript lays out n alternating INSERT DATA / DELETE DATA ops. Half
// the deletes retract base asserted triples, half retract earlier
// inserts. It returns the asserted set that survives the script and the
// N-Triples bytes the ops carried.
func churnScript(base []rdf.Triple, n int, seed int64) (ops []churnOp, survivors []rdf.Triple, userBytes int) {
	rng := rand.New(rand.NewSource(seed))
	byPredicate := map[string][]int{}
	var candidates []int
	for i, t := range base {
		for _, p := range churnPredicates {
			if t.P == p {
				byPredicate[p] = append(byPredicate[p], i)
				candidates = append(candidates, i)
			}
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	deleted := map[int]bool{}
	var inserted []rdf.Triple // not yet deleted, oldest first
	deletes := 0
	for i := 0; i < n; i++ {
		var op churnOp
		if i%2 == 0 {
			p := churnPredicates[(i/2)%len(churnPredicates)]
			like := base[byPredicate[p][rng.Intn(len(byPredicate[p]))]]
			op = churnOp{insert: true, triple: rdf.Triple{S: lubm(fmt.Sprintf("ChurnStudent%d", i/2)), P: p, O: like.O}}
			inserted = append(inserted, op.triple)
		} else {
			if deletes%2 == 0 {
				op.triple = base[candidates[deletes/2]]
				deleted[candidates[deletes/2]] = true
			} else {
				op.triple, inserted = inserted[0], inserted[1:]
			}
			deletes++
		}
		line := ntLine(op.triple)
		userBytes += len(line)
		if op.insert {
			op.text = "INSERT DATA { " + line + "}"
		} else {
			op.text = "DELETE DATA { " + line + "}"
		}
		ops = append(ops, op)
	}
	for i, t := range base {
		if !deleted[i] {
			survivors = append(survivors, t)
		}
	}
	return ops, append(survivors, inserted...), userBytes
}

type poolQuery struct {
	text string
	vars int // 0 for ASK
}

// hotPool is the reader's 20 queries: small enough to live in the
// server's result cache between writes, re-evaluated after each one.
func hotPool() []poolQuery {
	var pool []poolQuery
	prof := func(k int) string { return lubm(fmt.Sprintf("Prof%d", k)) }
	for k := 0; k < 8; k++ {
		pool = append(pool, poolQuery{"ASK { " + prof(k) + " " + lubm("worksFor") + " ?d }", 0})
	}
	for _, p := range []string{"teacherOf", "worksFor", "headOf", "subOrganizationOf"} {
		pool = append(pool, poolQuery{"SELECT ?x ?y WHERE { ?x " + lubm(p) + " ?y } LIMIT 100", 2})
	}
	for k := 0; k < 4; k++ {
		pool = append(pool, poolQuery{"SELECT ?d ?u WHERE { " + prof(k) + " " + lubm("worksFor") + " ?d . ?d " + lubm("subOrganizationOf") + " ?u }", 2})
	}
	return append(pool,
		poolQuery{"SELECT (COUNT(*) AS ?n) WHERE { ?x " + lubm("headOf") + " ?d }", 1},
		poolQuery{"SELECT (COUNT(*) AS ?n) WHERE { ?x " + rdfType + " " + lubm("University") + " }", 1},
		poolQuery{"SELECT ?x ?d ?c WHERE { ?x " + lubm("headOf") + " ?d . ?x " + lubm("teacherOf") + " ?c }", 3},
		poolQuery{"SELECT ?g ?d ?u WHERE { ?g " + rdfType + " " + lubm("ResearchGroup") + " . ?g " + lubm("subOrganizationOf") + " ?d . ?d " + rdfType + " " + lubm("Department") + " . ?d " + lubm("subOrganizationOf") + " ?u }", 3},
	)
}

var churnProbe = rdf.Triple{S: lubm("Prof0"), P: rdfType, O: lubm("Person")}

// churnState is one durable reasoner behind a default-config server.
type churnState struct {
	dir  string
	r    *inferray.Reasoner
	ls   *liveServer
	base []rdf.Triple
}

func (cs *churnState) shutdown() error {
	if cs.ls == nil {
		return nil
	}
	err := cs.ls.stop()
	if cerr := cs.r.Close(); err == nil {
		err = cerr
	}
	cs.ls = nil
	return err
}

func openDurable(dir string) (*inferray.Reasoner, error) {
	return inferray.Open(append(reasonerOptions(), inferray.WithDurability(dir, inferray.DurabilityOptions{}))...)
}

// setupChurn builds the durable directory, materializes LUBM into it and
// starts the default-config server (cache on), SetupReps times.
func setupChurn(e *env) (cs churnState, setups []float64, err error) {
	cs.dir = e.scratch + "/churn"
	for i := 0; i < e.sz.SetupReps; i++ {
		if err := cs.shutdown(); err != nil {
			return cs, nil, err
		}
		if err := os.RemoveAll(cs.dir); err != nil {
			return cs, nil, err
		}
		start := time.Now()
		cs.base = datagen.LUBM(e.sz.ChurnTriples, e.seed)
		if cs.r, err = openDurable(cs.dir); err != nil {
			return cs, nil, err
		}
		cs.r.AddTriples(cs.base)
		if _, err := cs.r.Materialize(); err != nil {
			return cs, nil, err
		}
		if cs.ls, err = serve(cs.r, server.DefaultConfig(), churnWriters+churnReaders); err != nil {
			return cs, nil, err
		}
		c := client{ls: cs.ls}
		if rep, err := c.query(hotPool()[0].text); err != nil || rep.status != 200 {
			return cs, nil, fmt.Errorf("server not answering: %v (status %d)", err, rep.status)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return cs, setups, nil
}

// churnObs is everything one pass over the durable HTTP path observed.
type churnObs struct {
	setups             []float64
	insertMS, deleteMS []float64
	readMS             []float64
	hitUS, missUS      []float64
	readWall           time.Duration
	writeWall          time.Duration // first update sent → last ack, checkpoints included
	checkpointS        []float64
	imageBytes         int64
	walBytes           uint64
	walRecords         uint64
	fsyncs             uint64
	userBytes          int
	updateMS           []float64 // Reasoner.Update time the server reported per insert
	imageLoadS         float64   // LoadImage of the newest checkpoint image (traced runs only)
	restarts           []float64
	heapPerTriple      float64
	closure            digest
}

// churnPass runs the script: one writer over POST /update with three
// forced checkpoints, one closed-loop reader over the hot pool until the
// writer finishes, then Close and reopen. extras adds the measurements
// only the traced run reports.
func churnPass(res *result, e *env, nOps int, extras bool) (obs churnObs, err error) {
	base := liveHeap()
	cs, setups, err := setupChurn(e)
	if err != nil {
		return obs, err
	}
	defer os.RemoveAll(cs.dir)
	defer cs.shutdown()
	obs.setups = setups

	pool := hotPool()
	want := make([]int, len(pool))
	for i, q := range pool {
		if want[i], _, _, err = execCount(cs.r, q.text); err != nil {
			return obs, err
		}
		res.verify(fmt.Sprintf("oracle_nonempty_pool%d", i), want[i] > 0, "no rows")
	}
	ops, survivors, userBytes := churnScript(cs.base, nOps, e.seed)
	cs.base = nil
	obs.userBytes = userBytes
	before := cs.r.Metrics()

	var done atomic.Bool
	var wg sync.WaitGroup
	var readErr, writeErr error
	var readFailed, writeFailed int
	wg.Add(2)
	go func() { // reader
		defer wg.Done()
		c := client{ls: cs.ls}
		start := time.Now()
		for i := 0; !done.Load(); i++ {
			q := pool[i%len(pool)]
			rep, err := c.query(q.text)
			if err != nil {
				readErr = err
				return
			}
			readFailed += b2i(!replyOK(rep, q.vars, want[i%len(pool)]))
			obs.readMS = append(obs.readMS, ms(rep.took))
			switch rep.cache {
			case "hit":
				obs.hitUS = append(obs.hitUS, us(rep.took))
			case "miss":
				obs.missUS = append(obs.missUS, us(rep.took))
			}
		}
		obs.readWall = time.Since(start)
	}()
	go func() { // writer
		defer wg.Done()
		defer done.Store(true)
		c := client{ls: cs.ls}
		start := time.Now()
		defer func() { obs.writeWall = time.Since(start) }()
		for i, op := range ops {
			rep, err := c.post("/update", "application/sparql-update", op.text)
			if err != nil {
				writeErr = err
				return
			}
			var ack struct {
				Inserted, Deleted int
				Duration          string
			}
			ok := rep.status == 200 && json.Unmarshal(rep.body, &ack) == nil &&
				ack.Inserted == b2i(op.insert) && ack.Deleted == b2i(!op.insert)
			writeFailed += b2i(!ok)
			if op.insert {
				obs.insertMS = append(obs.insertMS, ms(rep.took))
				inServer, _ := time.ParseDuration(ack.Duration) // absent or malformed reads as 0
				obs.updateMS = append(obs.updateMS, ms(inServer))
			} else {
				obs.deleteMS = append(obs.deleteMS, ms(rep.took))
			}
			if n := i + 1; n%(len(ops)/4) == 0 && n < len(ops) {
				rep, err := c.post("/checkpoint", "", "")
				if err != nil {
					writeErr = err
					return
				}
				writeFailed += b2i(rep.status != 200)
				obs.checkpointS = append(obs.checkpointS, rep.took.Seconds())
			}
		}
	}()
	wg.Wait()
	if readErr != nil || writeErr != nil {
		return obs, fmt.Errorf("reader: %v, writer: %v", readErr, writeErr)
	}
	res.op(len(obs.readMS), readFailed)
	res.op(len(ops)+len(obs.checkpointS), writeFailed)

	after := cs.r.Metrics()
	obs.walBytes = after.WALAppendBytes - before.WALAppendBytes
	obs.walRecords = after.WALAppends - before.WALAppends
	obs.fsyncs = after.WALFsyncs - before.WALFsyncs
	obs.imageBytes = after.SnapshotBytes

	obs.closure = digestOf(cs.r)
	fresh, _, err := materialized(survivors)
	if err != nil {
		return obs, err
	}
	got := digestOf(fresh)
	res.verify("leader_equals_fresh_materialization", got == obs.closure, "fresh closure of the surviving asserted set %+v, leader %+v", got, obs.closure)
	fresh, survivors = nil, nil

	if extras {
		if path, _, ok, err := cs.r.SnapshotFile(); err == nil && ok {
			start := time.Now()
			if _, err := inferray.LoadImage(path, reasonerOptions()...); err != nil {
				return obs, err
			}
			obs.imageLoadS = time.Since(start).Seconds()
		}
	}

	if err := cs.shutdown(); err != nil {
		return obs, err
	}
	// Server and result cache are gone; only the reasoner stays live.
	ops, pool = nil, nil
	obs.heapPerTriple = heapPerTriple(base, liveHeap(), obs.closure.N)
	obs.restarts, err = restart(res, e.sz.ReopenReps, obs.closure, func() (*inferray.Reasoner, error) { return openDurable(cs.dir) }, churnProbe)
	return obs, err
}

func runChurn(e *env) (*result, error) {
	res := newResult("lubm_churn")
	obs, err := churnPass(res, e, e.sz.ChurnOps, false)
	if err != nil {
		return nil, err
	}
	m := res.EndToEnd
	m.median("setup_s", obs.setups, "s")
	m.median("op_p50_ms", obs.insertMS, "ms")
	m.quantile("op_tail_ms", append(append([]float64(nil), obs.insertMS...), obs.deleteMS...), 0.95, "ms")
	m.set("ops_per_s", float64(len(obs.insertMS)+len(obs.deleteMS))/obs.writeWall.Seconds(), "1/s")
	m.set("heap_bytes_per_triple", obs.heapPerTriple, "B")
	m.median("restart_s", obs.restarts, "s")
	res.Derived["closure_digest"] = obs.closure
	res.Derived["delete_p50_ms"] = medianOf(obs.deleteMS)
	res.Derived["read_p99_ms"] = percentile(sorted(obs.readMS), 0.99)
	res.Derived["read_qps"] = float64(len(obs.readMS)) / obs.readWall.Seconds()
	res.Derived["wal_bytes_per_user_byte"] = float64(obs.walBytes) / float64(obs.userBytes)
	return res, nil
}

// traceChurn reports what the durable HTTP pass observed per layer, then
// drives the same script through each layer below it: SPARQL UPDATE
// parsing, Reasoner.Update without durability, the bare engine's
// incremental and DRed paths, and a scratch write-ahead log.
func traceChurn(e *env) (*result, error) {
	res := newResult("lubm_churn")
	once := *e
	once.sz.SetupReps, once.sz.ReopenReps = 1, 1
	obs, err := churnPass(res, &once, e.sz.TraceOps, true)
	if err != nil {
		return nil, err
	}
	m := res.PerLayer
	m.median("server.insert_p50_ms", obs.insertMS, "ms")
	m.median("server.delete_p50_ms", obs.deleteMS, "ms")
	m.quantile("server.read_p99_ms", obs.readMS, 0.99, "ms")
	m.set("server.read_qps", float64(len(obs.readMS))/obs.readWall.Seconds(), "1/s")
	m.median("snapshot.checkpoint_s", obs.checkpointS, "s")
	m.set("snapshot.image_bytes", float64(obs.imageBytes), "B")
	m.set("inferray.recover_s", medianOf(obs.restarts), "s")
	m.set("wal.replay_s", medianOf(obs.restarts)-obs.imageLoadS, "s")
	m.set("wal.bytes_per_user_byte", float64(obs.walBytes)/float64(obs.userBytes), "ratio")
	m.set("wal.fsyncs", float64(obs.fsyncs), "count")
	res.exact("wal.records", int64(obs.walRecords))
	res.exact("wal.bytes_per_record", int64(obs.walBytes/obs.walRecords))
	m.set("qcache.hit_ratio", float64(len(obs.hitUS))/float64(len(obs.hitUS)+len(obs.missUS)), "ratio")
	m.median("qcache.hit_p50_us", obs.hitUS, "us")
	m.median("qcache.miss_p50_us", obs.missUS, "us")
	m.set("server.update_overhead_us", 1e3*(medianOf(obs.insertMS)-medianOf(obs.updateMS)), "us")

	base := datagen.LUBM(e.sz.ChurnTriples, e.seed)
	ops, _, _ := churnScript(base, e.sz.TraceOps, e.seed)
	tr := e.tr

	var parses []float64
	for i, op := range ops {
		parses = append(parses, us(tr.do("sparql.parse_update", -1, i, func() { _, err = sparql.ParseUpdate(op.text) })))
		if err != nil {
			return nil, err
		}
	}
	m.median("sparql.parse_update_us", parses, "us")

	// Reasoner.Update with no durability layer under it.
	r, _, err := materialized(base)
	if err != nil {
		return nil, err
	}
	var inserts, deletes, unspanned []float64
	for i, op := range ops {
		var st inferray.UpdateStats
		tr.on = i%4 < 2 // every other insert/delete pair runs with no span, for the overhead
		took := tr.do("inferray.update", -1, i, func() { st, err = r.Update(op.text) })
		tr.on = true
		if err != nil {
			return nil, err
		}
		res.op(1, b2i(st.Inserted != b2i(op.insert) || st.Deleted != b2i(!op.insert)))
		switch {
		case !op.insert:
			deletes = append(deletes, ms(took))
		case i%4 < 2:
			inserts = append(inserts, ms(took))
		default:
			unspanned = append(unspanned, ms(took))
		}
	}
	m.set("trace.overhead_frac", (medianOf(inserts)-medianOf(unspanned))/medianOf(unspanned), "ratio")
	m.median("inferray.update_insert_ms", append(inserts, unspanned...), "ms")
	m.median("inferray.update_delete_ms", deletes, "ms")
	inMemory := digestOf(r)
	res.verify("update_path_digest", inMemory == obs.closure, "in-memory Update closure %+v, durable HTTP closure %+v", inMemory, obs.closure)
	r = nil

	// The bare engine: incremental fixpoint and delete-rederive.
	eng := reasoner.New(engineOptions())
	eng.LoadTriples(base)
	eng.Materialize()
	inserts, deletes = nil, nil
	var overdeleted, rederived int64
	for i, op := range ops {
		batch := []rdf.Triple{op.triple}
		if op.insert {
			inserts = append(inserts, ms(tr.do("reasoner.incremental", -1, i, func() {
				eng.LoadTriples(batch)
				eng.Materialize()
			})))
			continue
		}
		var rs reasoner.RetractStats
		deletes = append(deletes, ms(tr.do("reasoner.retract", -1, i, func() { rs, err = eng.Retract(batch) })))
		if err != nil {
			return nil, err
		}
		res.op(1, b2i(rs.Retracted != 1))
		overdeleted += int64(rs.Overdeleted)
		rederived += int64(rs.Rederived)
	}
	m.median("reasoner.incremental_ms", inserts, "ms")
	m.median("reasoner.retract_ms", deletes, "ms")
	res.exact("reasoner.overdeleted", overdeleted)
	res.exact("reasoner.rederived", rederived)
	bare := digestOf(eng)
	res.verify("engine_path_digest", bare == obs.closure, "bare engine closure %+v, durable HTTP closure %+v", bare, obs.closure)
	eng = nil

	// A scratch log fed the script's payloads under the same sync policy.
	path := e.scratch + "/trace.wal"
	defer os.Remove(path)
	policy, err := wal.ParseSyncPolicy(syncPolicy)
	if err != nil {
		return nil, err
	}
	log, err := wal.Create(path, 1, policy, syncIntervalMS*time.Millisecond)
	if err != nil {
		return nil, err
	}
	var appends []float64
	for i, op := range ops {
		kind := wal.OpAdd
		if !op.insert {
			kind = wal.OpDelete
		}
		payload := []byte(ntLine(op.triple))
		appends = append(appends, us(tr.do("wal.append", -1, i, func() { err = log.Append(kind, payload) })))
		if err != nil {
			log.Close()
			return nil, err
		}
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	m.median("wal.append_us", appends, "us")
	return res, nil
}

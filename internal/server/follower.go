package server

// Follower-side replication: an in-memory reasoner bootstraps from the
// leader's newest snapshot image, then tails GET /wal and applies each
// shipped record through Reasoner.ApplyReplicated — the identical
// incremental path the leader ran when it logged the record, so a
// caught-up follower holds the byte-identical closure at the same store
// generation. The loop retries with exponential backoff on connection
// failures and re-bootstraps from the image when the leader answers 410
// Gone (a checkpoint pruned the follower's position, or the leader lost
// an unsynced tail in a crash).

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"inferray"
	"inferray/internal/metrics"
	"inferray/internal/wal"
)

// FollowerOptions configures a replication tailer.
type FollowerOptions struct {
	// LeaderURL is the leader's base URL (e.g. http://leader:8080).
	LeaderURL string
	// RetryMin/RetryMax bound the reconnect backoff (defaults 100ms/5s).
	RetryMin time.Duration
	RetryMax time.Duration
	// WaitSeconds is the per-request /wal long-poll duration the
	// follower asks for (default 20, max 60).
	WaitSeconds int
	// Client overrides the HTTP client (default: no overall timeout —
	// requests are bounded by the long poll and canceled by Run's
	// context).
	Client *http.Client
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.RetryMin <= 0 {
		o.RetryMin = 100 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 5 * time.Second
	}
	if o.WaitSeconds <= 0 {
		o.WaitSeconds = 20
	}
	if o.WaitSeconds > 60 {
		o.WaitSeconds = 60
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// Follower replicates a leader into the server's reasoner. Create one
// with Server.NewFollower, start it with Run, and gate readiness on
// Ready: the channel closes after the first successful bootstrap, when
// the follower has a closure worth serving.
type Follower struct {
	r    *inferray.Reasoner
	opts FollowerOptions

	applied     *metrics.CounterVec // by op
	received    *metrics.Counter
	reconnects  *metrics.Counter
	bootstraps  *metrics.Counter
	truncations *metrics.Counter
	lagRecords  *metrics.Gauge
	lagGens     *metrics.Gauge
	connected   *metrics.Gauge

	ready     chan struct{}
	readyOnce sync.Once

	mu           sync.Mutex
	pos          inferray.WALPosition
	leaderTail   inferray.WALPosition
	bootstrapped bool
	lastErr      string
}

// NewFollower attaches a replication tailer to the server: the server's
// reasoner becomes the replica (it must be in-memory — a durable
// follower would fork its data directory from the replicated history),
// the follower's metrics land in the server's registry, and /stats
// grows a replication section. The server should be configured
// ReadOnly with LeaderURL so writers are pointed at the leader.
func (s *Server) NewFollower(opts FollowerOptions) (*Follower, error) {
	if opts.LeaderURL == "" {
		return nil, fmt.Errorf("server: follower needs a leader URL")
	}
	if s.r.Durable() {
		return nil, fmt.Errorf("server: a durable reasoner cannot follow a leader (its own data dir would fork from the replicated history)")
	}
	if s.follower != nil {
		return nil, fmt.Errorf("server: follower already attached")
	}
	f := &Follower{
		r:    s.r,
		opts: opts.withDefaults(),
		applied: s.reg.CounterVec("inferray_replication_applied_records_total",
			"Replicated WAL records applied, by op kind.", "op"),
		received: s.reg.Counter("inferray_replication_received_bytes_total",
			"Replication bytes received from the leader (WAL frames and snapshot images)."),
		reconnects: s.reg.Counter("inferray_replication_reconnects_total",
			"Replication connection failures followed by a backoff and retry."),
		bootstraps: s.reg.Counter("inferray_replication_bootstraps_total",
			"Snapshot bootstraps completed (the first one plus every re-bootstrap)."),
		truncations: s.reg.Counter("inferray_replication_truncations_total",
			"410 Gone answers from the leader: the follower's position was pruned and a re-bootstrap was forced."),
		lagRecords: s.reg.Gauge("inferray_replication_lag_records",
			"Records between the follower's applied position and the leader tail (same generation; 0 across a pending rotation)."),
		lagGens: s.reg.Gauge("inferray_replication_lag_generations",
			"Checkpoint generations between the follower's position and the leader tail."),
		connected: s.reg.Gauge("inferray_replication_connected",
			"1 while the follower's last leader exchange succeeded, 0 while retrying."),
		ready: make(chan struct{}),
	}
	s.follower = f
	return f, nil
}

// Ready is closed after the first successful bootstrap — the point
// where the follower holds a closure worth serving reads from.
func (f *Follower) Ready() <-chan struct{} { return f.ready }

// FollowerStats is the replication section of /stats on a follower.
type FollowerStats struct {
	Leader          string `json:"leader"`
	WALGeneration   uint64 `json:"wal_generation"`
	WALRecords      int    `json:"wal_records"`
	LeaderTailGen   uint64 `json:"leader_tail_generation"`
	LeaderTailRecs  int    `json:"leader_tail_records"`
	LagRecords      int64  `json:"lag_records"`
	LagGenerations  int64  `json:"lag_generations"`
	Connected       bool   `json:"connected"`
	Bootstraps      uint64 `json:"bootstraps"`
	Reconnects      uint64 `json:"reconnects"`
	Truncations     uint64 `json:"truncations"`
	RecordsApplied  uint64 `json:"records_applied"`
	BytesReceived   uint64 `json:"bytes_received"`
	StoreGeneration uint64 `json:"store_generation"`
	LastError       string `json:"last_error,omitempty"`
}

// Stats snapshots the follower's replication state.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	pos, tail, lastErr := f.pos, f.leaderTail, f.lastErr
	f.mu.Unlock()
	var appliedTotal uint64
	f.applied.Each(func(_ []string, c *metrics.Counter) { appliedTotal += c.Value() })
	return FollowerStats{
		Leader:          f.opts.LeaderURL,
		WALGeneration:   pos.Generation,
		WALRecords:      pos.Records,
		LeaderTailGen:   tail.Generation,
		LeaderTailRecs:  tail.Records,
		LagRecords:      f.lagRecords.Value(),
		LagGenerations:  f.lagGens.Value(),
		Connected:       f.connected.Value() == 1,
		Bootstraps:      f.bootstraps.Value(),
		Reconnects:      f.reconnects.Value(),
		Truncations:     f.truncations.Value(),
		RecordsApplied:  appliedTotal,
		BytesReceived:   f.received.Value(),
		StoreGeneration: f.r.Generation(),
		LastError:       lastErr,
	}
}

// Run drives the replication loop until ctx is canceled: bootstrap if
// needed, then tail the WAL one long-poll request at a time, backing
// off exponentially after failures. It only returns ctx.Err().
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.opts.RetryMin
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		err := f.step(ctx)
		if err == nil {
			f.connected.Set(1)
			f.setErr(nil)
			backoff = f.opts.RetryMin
			continue
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		f.connected.Set(0)
		f.setErr(err)
		f.reconnects.Inc()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > f.opts.RetryMax {
			backoff = f.opts.RetryMax
		}
	}
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	if err == nil {
		f.lastErr = ""
	} else {
		f.lastErr = err.Error()
	}
	f.mu.Unlock()
}

// step runs one replication exchange: a bootstrap when the follower has
// no (valid) base state, one /wal long poll otherwise.
func (f *Follower) step(ctx context.Context) error {
	f.mu.Lock()
	booted := f.bootstrapped
	f.mu.Unlock()
	if !booted {
		if err := f.bootstrap(ctx); err != nil {
			return err
		}
		f.readyOnce.Do(func() { close(f.ready) })
	}
	return f.tailOnce(ctx)
}

// bootstrap downloads /snapshot/latest and installs it as the replica's
// entire state. A leader with no image yet (fresh directory) answers
// 404 with the generation header; the follower starts from its current
// (usually empty) state and streams from (gen, 0) — every record since
// the beginning is still in that log.
func (f *Follower) bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opts.LeaderURL+"/snapshot/latest", nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusNotFound:
		gen, err := strconv.ParseUint(resp.Header.Get(hdrWALGen), 10, 64)
		if err != nil {
			return fmt.Errorf("follower: leader has no snapshot and sent no generation header")
		}
		f.finishBootstrap(inferray.WALPosition{Generation: gen})
		return nil
	case http.StatusOK:
	default:
		return fmt.Errorf("follower: GET /snapshot/latest: %s", resp.Status)
	}
	// The image is parsed and verified off the wire; nothing is replaced
	// unless the whole body passes, so a cut download costs only a retry.
	body := &countingReader{r: resp.Body}
	pos, err := f.r.RestoreImage(body)
	f.received.Add(body.n)
	if err != nil {
		return fmt.Errorf("follower: installing snapshot: %w", err)
	}
	f.finishBootstrap(pos)
	return nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

func (f *Follower) finishBootstrap(pos inferray.WALPosition) {
	f.mu.Lock()
	f.pos = pos
	f.bootstrapped = true
	f.mu.Unlock()
	f.bootstraps.Inc()
}

// tailOnce issues one long-poll /wal request and applies every frame it
// returns. A clean response end is success (the caller immediately
// re-requests from the advanced position); 410 Gone schedules a
// re-bootstrap.
func (f *Follower) tailOnce(ctx context.Context) error {
	f.mu.Lock()
	pos := f.pos
	f.mu.Unlock()
	url := fmt.Sprintf("%s/wal?from=%d&records=%d&wait=%d",
		f.opts.LeaderURL, pos.Generation, pos.Records, f.opts.WaitSeconds)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusGone:
		// The leader checkpointed past us (or lost a tail we had
		// applied): the missing records live only inside the image now.
		f.truncations.Inc()
		f.mu.Lock()
		f.bootstrapped = false
		f.mu.Unlock()
		return nil
	case http.StatusOK:
	default:
		return fmt.Errorf("follower: GET /wal: %s", resp.Status)
	}
	// Adopt the resolved start position: a fully caught-up follower is
	// transparently advanced across a checkpoint rotation.
	if gen, err := strconv.ParseUint(resp.Header.Get(hdrWALGen), 10, 64); err == nil {
		recs, rerr := strconv.Atoi(resp.Header.Get(hdrWALRecords))
		if rerr == nil && (gen != pos.Generation || recs != pos.Records) {
			pos = inferray.WALPosition{Generation: gen, Records: recs}
		}
	}
	f.noteTail(resp.Header, pos)
	// The poll is live from here on; don't wait for the window to close
	// before reporting it.
	f.connected.Set(1)

	fr := wal.NewFrameReader(resp.Body)
	for {
		kind, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Cut mid-frame: apply nothing further, reconnect from the
			// last applied position. Everything before the cut was
			// CRC-verified and applied.
			f.setPos(pos)
			return fmt.Errorf("follower: wal stream: %w", err)
		}
		batch, err := wal.DecodeBatch(payload)
		if err != nil {
			f.setPos(pos)
			return fmt.Errorf("follower: record %s: %w", pos, err)
		}
		if err := f.r.ApplyReplicated(kind, batch); err != nil {
			f.setPos(pos)
			return fmt.Errorf("follower: applying record %s: %w", pos, err)
		}
		pos.Records++
		f.setPos(pos)
		f.applied.With(opName(kind)).Inc()
		f.received.Add(uint64(len(payload) + 9)) // frame = header(8) + kind(1) + payload
		f.updateLag(pos)
	}
	f.setPos(pos)
	f.updateLag(pos)
	return nil
}

func (f *Follower) setPos(pos inferray.WALPosition) {
	f.mu.Lock()
	f.pos = pos
	f.mu.Unlock()
}

// noteTail records the leader tail advertised on a /wal response and
// refreshes the lag gauges against it.
func (f *Follower) noteTail(h http.Header, pos inferray.WALPosition) {
	gen, err := strconv.ParseUint(h.Get(hdrWALTailGen), 10, 64)
	if err != nil {
		return
	}
	recs, err := strconv.Atoi(h.Get(hdrWALTailRecords))
	if err != nil {
		return
	}
	f.mu.Lock()
	f.leaderTail = inferray.WALPosition{Generation: gen, Records: recs}
	f.mu.Unlock()
	f.updateLag(pos)
}

// updateLag refreshes the lag gauges: generations behind the advertised
// leader tail, and records behind it when on the same generation (a
// pending rotation reports 0 record lag — the next exchange crosses it
// and re-measures).
func (f *Follower) updateLag(pos inferray.WALPosition) {
	f.mu.Lock()
	tail := f.leaderTail
	f.mu.Unlock()
	if tail.Generation >= pos.Generation {
		f.lagGens.Set(int64(tail.Generation - pos.Generation))
	}
	if tail.Generation == pos.Generation && tail.Records >= pos.Records {
		f.lagRecords.Set(int64(tail.Records - pos.Records))
	} else {
		f.lagRecords.Set(0)
	}
}

// opName labels a record kind for the applied-records metric.
func opName(kind inferray.WALOp) string {
	if kind == inferray.WALDelete {
		return "delete"
	}
	return "add"
}

package server

// Leader-side replication: a durable reasoner exposes its write-ahead
// log as a resumable HTTP record stream plus the newest snapshot image
// for bootstrap. Followers (see follower.go) download the image, then
// tail GET /wal and re-apply each shipped record through the same
// incremental-materialization path the leader ran — derived state is
// re-computed on each replica, never shipped.
//
//	GET /wal?from=<gen>&records=<n>[&wait=<sec>]
//	    Stream committed WAL records at and after position (gen, n),
//	    framed exactly like on-disk records (wal.EncodeFrame);
//	    long-polls up to wait seconds (default 20) for new records
//	    before closing on a frame boundary. Response headers announce
//	    the resolved start position (X-Inferray-WAL-Generation /
//	    -Records: a fully caught-up consumer is transparently advanced
//	    past a checkpoint rotation) and the leader tail
//	    (X-Inferray-WAL-Tail-Generation / -Tail-Records) for lag
//	    accounting. One response serves one generation; re-request to
//	    cross into the next. A pruned position answers 410 Gone — the
//	    consumer must re-bootstrap from /snapshot/latest.
//	GET /snapshot/latest
//	    The current generation's snapshot image (the exact on-disk
//	    file, CRC and all). 404 with the generation header when the
//	    directory has no image yet (fresh leader before its first
//	    checkpoint): bootstrap empty and stream from (gen, 0).

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"inferray"
	"inferray/internal/metrics"
	"inferray/internal/wal"
)

// Replication stream header names. The WAL-prefixed generation headers
// are checkpoint generations (file pairing); they are distinct from
// X-Inferray-Generation, the logical store generation.
const (
	hdrWALGen         = "X-Inferray-WAL-Generation"
	hdrWALRecords     = "X-Inferray-WAL-Records"
	hdrWALTailGen     = "X-Inferray-WAL-Tail-Generation"
	hdrWALTailRecords = "X-Inferray-WAL-Tail-Records"

	// walContentType is the GET /wal response body: a concatenation of
	// WAL record frames.
	walContentType = "application/x-inferray-wal"
)

// replPollInterval is how often the long-polling /wal handler re-checks
// the tail for growth.
const replPollInterval = 25 * time.Millisecond

// replMetrics is the leader-side replication instrument set, registered
// on the server's registry when the reasoner is durable.
type replMetrics struct {
	shippedRecords *metrics.Counter
	shippedBytes   *metrics.Counter
	walRequests    *metrics.Counter
	truncations    *metrics.Counter
	snapshotShips  *metrics.Counter
	snapshotBytes  *metrics.Counter
}

func newReplMetrics(reg *metrics.Registry) *replMetrics {
	return &replMetrics{
		shippedRecords: reg.Counter("inferray_replication_shipped_records_total",
			"WAL records shipped to replication consumers via GET /wal."),
		shippedBytes: reg.Counter("inferray_replication_shipped_bytes_total",
			"WAL frame bytes shipped to replication consumers."),
		walRequests: reg.Counter("inferray_replication_wal_requests_total",
			"GET /wal requests served (any outcome)."),
		truncations: reg.Counter("inferray_replication_truncations_total",
			"GET /wal requests answered 410 Gone (position pruned by a checkpoint)."),
		snapshotShips: reg.Counter("inferray_replication_snapshot_ships_total",
			"Snapshot images shipped via GET /snapshot/latest."),
		snapshotBytes: reg.Counter("inferray_replication_snapshot_shipped_bytes_total",
			"Snapshot image bytes shipped via GET /snapshot/latest."),
	}
}

// setPosHeaders stamps a position pair onto the response.
func setPosHeaders(w http.ResponseWriter, genHdr, recHdr string, pos inferray.WALPosition) {
	w.Header().Set(genHdr, strconv.FormatUint(pos.Generation, 10))
	w.Header().Set(recHdr, strconv.Itoa(pos.Records))
}

func (s *Server) handleWAL(w http.ResponseWriter, req *http.Request) {
	s.repl.walRequests.Inc()
	q := req.URL.Query()
	var pos inferray.WALPosition
	if v := q.Get("from"); v != "" {
		g, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "from must be a generation number, got %q", v)
			return
		}
		pos.Generation = g
	}
	if v := q.Get("records"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "records must be a non-negative integer, got %q", v)
			return
		}
		pos.Records = n
	}
	wait := 20 * time.Second
	if v := q.Get("wait"); v != "" {
		sec, err := strconv.Atoi(v)
		if err != nil || sec < 0 || sec > 60 {
			httpError(w, http.StatusBadRequest, "wait must be 0..60 seconds, got %q", v)
			return
		}
		wait = time.Duration(sec) * time.Second
	}
	deadline := time.Now().Add(wait)

	st, err := s.r.StreamWAL(pos)
	if err != nil {
		if errors.Is(err, inferray.ErrWALTruncated) {
			// The records between pos and the tail live only inside the
			// snapshot image now; tell the consumer to re-bootstrap.
			s.repl.truncations.Inc()
			tail, _ := s.r.WALTail()
			setPosHeaders(w, hdrWALTailGen, hdrWALTailRecords, tail)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusGone)
			writeJSONBody(w, map[string]any{
				"error":      "position truncated by a checkpoint; re-bootstrap from /snapshot/latest",
				"generation": tail.Generation,
				"records":    tail.Records,
			})
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	// Headers go out before the first frame, so one response serves one
	// generation: if a checkpoint rotates the log mid-poll, the response
	// ends on a frame boundary and the next request re-resolves (and
	// re-advertises) the new generation.
	start := st.Pos()
	tail, _ := s.r.WALTail()
	setPosHeaders(w, hdrWALGen, hdrWALRecords, start)
	setPosHeaders(w, hdrWALTailGen, hdrWALTailRecords, tail)
	w.Header().Set("Content-Type", walContentType)
	flusher, _ := w.(http.Flusher)

	for {
		n, err := s.shipFrames(w, st)
		pos = st.Pos()
		st.Close()
		if err != nil {
			// Client gone or the stream hit unreadable bytes; either way
			// the response is already committed — just stop.
			return
		}
		if n > 0 && flusher != nil {
			flusher.Flush()
		}
		if req.Context().Err() != nil || !s.waitForTail(req.Context(), pos, deadline) {
			return
		}
		next, err := s.r.StreamWAL(pos)
		if err != nil {
			// Truncated or rotated mid-poll: end the response; the next
			// request resolves against the new state with fresh headers.
			return
		}
		if next.Pos().Generation != start.Generation {
			next.Close()
			return
		}
		st = next
	}
}

// shipFrames writes every record the stream holds as a wire frame,
// returning how many were shipped.
func (s *Server) shipFrames(w io.Writer, st *inferray.WALStream) (int, error) {
	n := 0
	for {
		kind, payload, err := st.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		frame := wal.EncodeFrame(kind, payload)
		if _, err := w.Write(frame); err != nil {
			return n, err
		}
		n++
		s.repl.shippedRecords.Inc()
		s.repl.shippedBytes.Add(uint64(len(frame)))
	}
}

// waitForTail polls until the leader tail moves past pos, the deadline
// passes, or the client goes away. Reports whether there is anything
// new to ship.
func (s *Server) waitForTail(ctx interface{ Done() <-chan struct{} }, pos inferray.WALPosition, deadline time.Time) bool {
	for {
		tail, err := s.r.WALTail()
		if err != nil {
			return false
		}
		if tail != pos {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(replPollInterval):
		}
	}
}

func (s *Server) handleSnapshotLatest(w http.ResponseWriter, req *http.Request) {
	// A checkpoint can prune the image between the path lookup and the
	// open; re-resolve once before giving up.
	for attempt := 0; ; attempt++ {
		path, gen, ok, err := s.r.SnapshotFile()
		if err != nil {
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		w.Header().Set(hdrWALGen, strconv.FormatUint(gen, 10))
		if !ok {
			httpError(w, http.StatusNotFound,
				"no snapshot image yet; bootstrap empty and stream from generation %d", gen)
			return
		}
		f, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) && attempt == 0 {
				continue
			}
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
		n, _ := io.Copy(w, f)
		f.Close()
		s.repl.snapshotShips.Inc()
		s.repl.snapshotBytes.Add(uint64(n))
		return
	}
}

// writeJSONBody encodes v after the status line is already written
// (writeJSON would try to set headers).
func writeJSONBody(w io.Writer, v any) {
	enc, err := json.Marshal(v)
	if err == nil {
		enc = append(enc, '\n')
		_, _ = w.Write(enc)
	}
}

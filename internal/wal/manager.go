// The durability Manager pairs the write-ahead log with snapshot
// images under one data directory:
//
//	<dir>/snap-<generation>.img   snapshot image (snapshot.WriteFile)
//	<dir>/wal-<generation>.log    log of batches ingested after it
//
// Invariant: at every instant the union of (newest valid image, its
// same-generation log) reproduces every acknowledged batch. A
// checkpoint advances the generation: it writes snap-(g+1) from the
// materialized store (the caller holds the reasoner's read lock, and
// because appends happen under the write lock, every record in wal-g is
// already applied and therefore inside the new image), creates an empty
// wal-(g+1), swaps it in, and only then deletes generation ≤ g files.
// A crash at any point leaves a directory some prefix of that sequence,
// and recovery resolves every prefix to the invariant.
package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/snapshot"
	"inferray/internal/store"
)

// Options configures a Manager.
type Options struct {
	// Sync is the log fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncInterval is the group-commit period for SyncInterval
	// (default 50ms).
	SyncInterval time.Duration
	// RotateBytes triggers an automatic checkpoint once the log exceeds
	// this many bytes. 0 means the 64 MiB default; negative disables.
	RotateBytes int64
	// RotateRecords triggers an automatic checkpoint once the log holds
	// this many records. 0 means the 4096 default; negative disables.
	RotateRecords int
	// Metrics, when non-nil, receives append, fsync, and checkpoint
	// instrumentation (see NewMetrics); it is attached to every log the
	// manager opens or rotates to.
	Metrics *Metrics
}

func (o *Options) fill() {
	if o.RotateBytes == 0 {
		o.RotateBytes = 64 << 20
	}
	if o.RotateRecords == 0 {
		o.RotateRecords = 4096
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
}

// Recovery reports what OpenManager found and rebuilt.
type Recovery struct {
	SnapshotLoaded   bool
	SnapshotMeta     snapshot.Meta
	CorruptSnapshots int // images that failed CRC/parse and were skipped
	ReplayedRecords  int
	ReplayedTriples  int
	TruncatedTail    bool // a torn/corrupt log tail was cut off
}

// Hooks receive the recovered state during OpenManager. Restore is
// called at most once, before any Apply call; Apply is called once per
// surviving log record, in append order, with the record's op kind and
// decoded batch. A nil hook skips its step (tests that only inspect the
// directory).
type Hooks struct {
	Restore func(d *dictionary.Dictionary, st *store.Store, meta snapshot.Meta) error
	Apply   func(kind OpKind, batch []rdf.Triple) error
}

// CheckpointStats reports one checkpoint.
type CheckpointStats struct {
	Generation    uint64
	Triples       int
	SnapshotBytes int64
	Duration      time.Duration
}

// Manager owns the data directory. Append and Checkpoint must be
// externally ordered the way the reasoner orders them (appends under
// its write lock, checkpoints under its read lock); the manager's own
// lock only protects its file handles and counters.
type Manager struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cur      *Log
	gen      uint64
	recovery Recovery
	// prevTail is the tail position of the log the last checkpoint
	// rotated away. A stream consumer standing exactly there is fully
	// caught up — the image holds everything it consumed — so
	// StreamFrom resumes it at the current generation's start instead
	// of forcing a re-bootstrap.
	prevTail Position

	lastCheckpoint   CheckpointStats
	lastCheckpointAt time.Time
	checkpointErr    error
}

// OpenManager opens (creating if needed) a data directory, recovers its
// state through the hooks, and leaves the newest log open for
// appending: the newest valid snapshot image is handed to
// hooks.Restore, the pairing log's surviving records to hooks.Apply,
// stale generations are pruned, and a missing pairing log is created
// empty.
func OpenManager(dir string, opts Options, hooks Hooks) (*Manager, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{dir: dir, opts: opts}

	snaps, wals, err := scanDir(dir)
	if err != nil {
		return nil, err
	}

	// Newest image that verifies wins; a corrupt newer image degrades
	// to an older valid generation when one is still on disk.
	gens := make([]uint64, 0, len(snaps))
	for g := range snaps {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	var corrupt []string
	for _, g := range gens {
		d, st, meta, err := snapshot.ReadFile(snaps[g])
		if err != nil {
			m.recovery.CorruptSnapshots++
			corrupt = append(corrupt, fmt.Sprintf("%s (%v)", snaps[g], err))
			continue
		}
		if hooks.Restore != nil {
			if err := hooks.Restore(d, st, meta); err != nil {
				return nil, fmt.Errorf("wal: restoring snapshot %s: %w", snaps[g], err)
			}
		}
		m.recovery.SnapshotLoaded = true
		m.recovery.SnapshotMeta = meta
		m.gen = g
		if opts.Metrics != nil {
			if fi, err := os.Stat(snaps[g]); err == nil {
				opts.Metrics.SnapshotBytes.Set(fi.Size())
			}
		}
		break
	}
	// Checkpoints prune superseded generations, so normally exactly one
	// image exists. If images are present but none verifies, starting
	// anyway would serve only the WAL tail as if it were everything —
	// and the next checkpoint would delete the corrupt image, turning
	// recoverable bit-rot into permanent loss. Refuse instead; the
	// operator decides (restore from backup, or remove the image to
	// accept the loss explicitly).
	if !m.recovery.SnapshotLoaded && len(corrupt) > 0 {
		return nil, fmt.Errorf(
			"wal: no snapshot image in %s passes verification: %s — refusing to start on the WAL tail alone; restore an image from backup, or delete the corrupt file(s) to explicitly accept the data loss",
			dir, strings.Join(corrupt, "; "))
	}

	// Logs older than the loaded image are fully contained in it; logs
	// at or above it (more than one only after a crash mid-rotation
	// with a corrupt newer image) are replayed oldest-first.
	var replayGens []uint64
	for g := range wals {
		if g < m.gen {
			os.Remove(wals[g])
			continue
		}
		replayGens = append(replayGens, g)
	}
	sort.Slice(replayGens, func(i, j int) bool { return replayGens[i] < replayGens[j] })

	replayRecord := func(kind OpKind, payload []byte) error {
		batch, err := DecodeBatch(payload)
		if err != nil {
			// CRC-valid but unparseable means the writer logged garbage —
			// a logic bug, not disk corruption. Refuse to guess.
			return fmt.Errorf("wal: replaying record: %w", err)
		}
		m.recovery.ReplayedTriples += len(batch)
		if hooks.Apply == nil {
			return nil
		}
		return hooks.Apply(kind, batch)
	}

	for i, g := range replayGens {
		last := i == len(replayGens)-1
		l, st, err := Open(wals[g], opts.Sync, opts.SyncInterval, replayRecord)
		if err != nil {
			return nil, fmt.Errorf("wal: opening %s: %w", wals[g], err)
		}
		m.recovery.ReplayedRecords += st.Records
		m.recovery.TruncatedTail = m.recovery.TruncatedTail || st.Truncated
		if last {
			l.SetMetrics(opts.Metrics)
			m.cur = l
			if g > m.gen {
				m.gen = g
			}
		} else {
			l.Close()
		}
	}
	if m.cur == nil {
		l, err := Create(m.logPath(m.gen), m.gen, opts.Sync, opts.SyncInterval)
		if err != nil {
			return nil, err
		}
		l.SetMetrics(opts.Metrics)
		m.cur = l
	}
	return m, nil
}

// Recovery returns what OpenManager found.
func (m *Manager) Recovery() Recovery {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovery
}

// Append logs one batch — ingested (OpAdd) or retracted (OpDelete) —
// serialized as N-Triples, honoring the sync policy. Callers append
// before applying the batch to the store. An empty batch logs nothing.
func (m *Manager) Append(kind OpKind, batch []rdf.Triple) error {
	if len(batch) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, batch); err != nil {
		return err
	}
	m.mu.Lock()
	cur := m.cur
	m.mu.Unlock()
	return cur.Append(kind, buf.Bytes())
}

// ShouldRotate reports whether the log has crossed a checkpoint
// threshold.
func (m *Manager) ShouldRotate() bool {
	m.mu.Lock()
	cur := m.cur
	m.mu.Unlock()
	if m.opts.RotateBytes > 0 && cur.Size()-headerSize >= m.opts.RotateBytes {
		return true
	}
	if m.opts.RotateRecords > 0 && cur.Records() >= m.opts.RotateRecords {
		return true
	}
	return false
}

// Checkpoint writes a fresh image of (d, st) and rotates the log. The
// caller must hold the reasoner's read lock across the call (and issue
// appends only under the write lock), which is what guarantees every
// logged record is inside the image before its log is deleted. The
// sequence is crash-ordered: image first (fsync+rename), then the new
// log (fsync), then deletion of the superseded generation. meta is the
// caller's description of the state (fragment, store generation,
// encoding flag); the manager fills in only the generation it is about
// to open.
func (m *Manager) Checkpoint(d *dictionary.Dictionary, st *store.Store, meta snapshot.Meta) (CheckpointStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	newGen := m.gen + 1
	meta.Generation = newGen
	snapPath := m.snapPath(newGen)
	if err := snapshot.WriteFile(snapPath, d, st, meta); err != nil {
		m.checkpointErr = err
		return CheckpointStats{}, err
	}
	newLog, err := Create(m.logPath(newGen), newGen, m.opts.Sync, m.opts.SyncInterval)
	if err != nil {
		m.checkpointErr = err
		return CheckpointStats{}, err
	}
	newLog.SetMetrics(m.opts.Metrics)
	old := m.cur
	oldGen := m.gen
	m.prevTail = Position{Generation: oldGen, Records: old.Records()}
	m.cur = newLog
	m.gen = newGen
	old.Close() // its data is in the image
	// Prune everything the new image supersedes, the old log included.
	snaps, wals, err := scanDir(m.dir)
	if err == nil {
		for g, p := range snaps {
			if g < newGen {
				os.Remove(p)
			}
		}
		for g, p := range wals {
			if g < newGen {
				os.Remove(p)
			}
		}
	}
	snapshot.SyncDir(m.dir)

	fi, _ := os.Stat(snapPath)
	cs := CheckpointStats{
		Generation: newGen,
		Triples:    st.Size(),
		Duration:   time.Since(start),
	}
	if fi != nil {
		cs.SnapshotBytes = fi.Size()
	}
	if mm := m.opts.Metrics; mm != nil {
		mm.Checkpoints.Inc()
		mm.CheckpointSeconds.ObserveDuration(cs.Duration)
		mm.SnapshotBytes.Set(cs.SnapshotBytes)
	}
	m.lastCheckpoint = cs
	m.lastCheckpointAt = time.Now()
	m.checkpointErr = nil
	return cs, nil
}

// Stats is an operator-facing view of the manager's state.
type Stats struct {
	Dir        string
	SyncPolicy string
	Generation uint64
	WALRecords int
	WALBytes   int64 // record bytes, header excluded

	LastCheckpoint   CheckpointStats
	LastCheckpointAt time.Time
	CheckpointError  string // last auto-checkpoint failure, empty when healthy

	Recovery Recovery
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Dir:              m.dir,
		SyncPolicy:       m.opts.Sync.String(),
		Generation:       m.gen,
		WALRecords:       m.cur.Records(),
		WALBytes:         m.cur.Size() - headerSize,
		LastCheckpoint:   m.lastCheckpoint,
		LastCheckpointAt: m.lastCheckpointAt,
		Recovery:         m.recovery,
	}
	if m.checkpointErr != nil {
		s.CheckpointError = m.checkpointErr.Error()
	}
	return s
}

// Close flushes and closes the current log. The directory stays fully
// recoverable: Close is a convenience for tidy shutdown, not a
// durability requirement.
func (m *Manager) Close() error {
	m.mu.Lock()
	cur := m.cur
	m.mu.Unlock()
	return cur.Close()
}

func (m *Manager) snapPath(gen uint64) string {
	return filepath.Join(m.dir, fmt.Sprintf("snap-%016d.img", gen))
}

func (m *Manager) logPath(gen uint64) string {
	return filepath.Join(m.dir, fmt.Sprintf("wal-%016d.log", gen))
}

// scanDir maps generation → path for images and logs, deleting
// leftover temp files from interrupted image writes.
func scanDir(dir string) (snaps, wals map[uint64]string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	snaps = make(map[uint64]string)
	wals = make(map[uint64]string)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.Contains(name, ".img.tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if g, ok := parseGen(name, "snap-", ".img"); ok {
			snaps[g] = filepath.Join(dir, name)
		}
		if g, ok := parseGen(name, "wal-", ".log"); ok {
			wals[g] = filepath.Join(dir, name)
		}
	}
	return snaps, wals, nil
}

func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	g, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

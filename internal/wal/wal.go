// Package wal gives the serving engine durability: an append-only,
// length-prefixed, CRC-32C-checked write-ahead log of ingested triple
// batches, and a Manager that pairs the log with internal/snapshot
// images — appends go to the log before they are applied, a checkpoint
// writes a fresh image and rotates to an empty log, and recovery loads
// the newest valid image and replays the surviving log tail. A torn or
// corrupted tail record fails its CRC and is truncated away, never
// replayed.
//
// Log file layout (little-endian):
//
//	header: magic "IFWL" | version u32 | generation u64
//	records: × (payloadLen u32 | crc32c(payload) u32 | payload)
//
// The record payload opens with one op-kind byte (OpAdd = 1, OpDelete =
// 2) followed by the batch serialized as N-Triples — the same bytes a
// client posted, so replay runs the exact incremental path the live
// server ran. A record whose kind byte is unknown is treated exactly
// like a bad CRC — the tail is truncated, never guessed at.
//
// There is one format, version 2. A file that opens with the log magic
// but any other version is refused — Open fails with an error naming
// the file, the version found and the version supported, and the file
// is left untouched: it is some other build's log, not a torn one.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

const (
	logMagic   = "IFWL"
	logVersion = 2
	headerSize = 4 + 4 + 8
	recHeader  = 4 + 4

	// MaxRecordBytes bounds one record's payload. A length prefix above
	// it is treated as corruption, which keeps a flipped length bit from
	// demanding a gigabyte allocation during replay.
	MaxRecordBytes = 1 << 28
)

// OpKind says what a log record does to the store.
type OpKind byte

const (
	// OpAdd is an ingested triple batch.
	OpAdd OpKind = 1
	// OpDelete is a retracted triple batch.
	OpDelete OpKind = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy says when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncInterval (the default) marks the log dirty on append and lets
	// a background flusher fsync at a fixed interval — group commit.
	// A crash loses at most one interval of acknowledged writes; the
	// log never loses more than its tail, and never corrupts.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before Append returns: an acknowledged write
	// survives any crash.
	SyncAlways
	// SyncNone never fsyncs explicitly; the OS flushes on its own
	// schedule. Fastest, survives process crashes (the kernel holds the
	// pages) but not power loss.
	SyncNone
)

// ParseSyncPolicy resolves a policy by name ("always", "interval",
// "none").
func ParseSyncPolicy(name string) (SyncPolicy, error) {
	switch name {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always | interval | none)", name)
}

// String names the policy the way the CLI flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "interval"
	}
}

// Log is one write-ahead log file, open for appending. Append, Sync,
// and Close are safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	gen     uint64
	size    int64 // bytes, header included
	records int
	dirty   bool // appended since the last fsync
	syncErr error

	policy SyncPolicy
	stop   chan struct{} // closes the background flusher (SyncInterval)
	done   chan struct{}

	// m, when non-nil, receives append and fsync instrumentation. Read
	// and written under mu (SetMetrics), which orders it against the
	// flusher goroutine.
	m *Metrics
}

// Create writes a fresh, empty log at path (truncating anything there),
// fsyncs the header, and starts the policy's flusher.
func Create(path string, gen uint64, policy SyncPolicy, interval time.Duration) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	head := header(gen)
	if _, err := f.Write(head[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{f: f, path: path, gen: gen, size: headerSize, policy: policy}
	l.startFlusher(interval)
	return l, nil
}

// ReplayStats reports what a log replay found.
type ReplayStats struct {
	Records   int   // valid records delivered
	Bytes     int64 // log size after any truncation
	Truncated bool  // a torn or corrupt tail was cut off
}

// Open replays an existing log and opens it for appending. Every record
// whose CRC verifies is delivered to fn in order with its op kind; the
// first record that is torn (short) or corrupt (bad CRC, implausible
// length, unknown op kind) ends the replay and the file is truncated at
// the last valid offset, so the next writer appends over the garbage
// instead of after it. A missing file is an error; a file with a
// damaged header (short, or wrong magic) is rewritten empty — nothing
// before the first record can be trusted; a file with an intact header
// of another format version is an error and is not modified.
func Open(path string, policy SyncPolicy, interval time.Duration, fn func(kind OpKind, payload []byte) error) (*Log, ReplayStats, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	st, gen, err := replay(f, fn)
	if err != nil {
		f.Close()
		return nil, st, err
	}
	if st.Truncated {
		if err := f.Truncate(st.Bytes); err != nil {
			f.Close()
			return nil, st, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, st, err
		}
	}
	if _, err := f.Seek(st.Bytes, io.SeekStart); err != nil {
		f.Close()
		return nil, st, err
	}
	l := &Log{f: f, path: path, gen: gen, size: st.Bytes, records: st.Records, policy: policy}
	l.startFlusher(interval)
	return l, st, nil
}

// replay scans records from the start of f, calling fn for each valid
// one. It returns the stats and the generation from the header. An
// error from fn and an intact header of another version are fatal;
// corruption ends the scan with Truncated set.
func replay(f *os.File, fn func(kind OpKind, payload []byte) error) (ReplayStats, uint64, error) {
	st := ReplayStats{}
	var head [headerSize]byte
	if _, err := io.ReadFull(f, head[:]); err != nil || string(head[:4]) != logMagic {
		// Short file or wrong magic: treat the whole file as a torn create
		// and rewrite it empty under generation 0. The caller pairs logs
		// with snapshots by filename, so the embedded generation is
		// advisory.
		if err := rewriteHeader(f, 0); err != nil {
			return st, 0, err
		}
		st.Truncated = true
		st.Bytes = headerSize
		return st, 0, nil
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != logVersion {
		// Whole, but another build's: refused, never rewritten as torn.
		return st, 0, fmt.Errorf("wal: %s is a version-%d log; this build supports only version %d", f.Name(), v, logVersion)
	}
	gen := binary.LittleEndian.Uint64(head[8:])
	offset := int64(headerSize)
	// Recovery iterates the same frame reader the replication stream
	// does (see stream.go): replay is "replicate from local disk", and
	// the only difference from a network tail is that a bad frame here
	// marks the truncation point instead of a reconnect.
	sc := frameScanner{r: f}
	for {
		kind, body, frameLen, err := sc.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			st.Truncated = true // torn or corrupt tail
			break
		}
		if fn != nil {
			if err := fn(kind, body); err != nil {
				return st, gen, err
			}
		}
		offset += frameLen
		st.Records++
	}
	st.Bytes = offset
	return st, gen, nil
}

// header lays out a current-version log header.
func header(gen uint64) (head [headerSize]byte) {
	copy(head[:4], logMagic)
	binary.LittleEndian.PutUint32(head[4:], logVersion)
	binary.LittleEndian.PutUint64(head[8:], gen)
	return head
}

func rewriteHeader(f *os.File, gen uint64) error {
	head := header(gen)
	if _, err := f.WriteAt(head[:], 0); err != nil {
		return err
	}
	if err := f.Truncate(headerSize); err != nil {
		return err
	}
	return f.Sync()
}

// startFlusher launches the background group-commit goroutine for
// SyncInterval logs; other policies need none.
func (l *Log) startFlusher(interval time.Duration) {
	if l.policy != SyncInterval {
		return
	}
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				l.Sync()
			case <-l.stop:
				return
			}
		}
	}()
}

// Append writes one record — write-ahead: callers append before
// applying the batch, so a crash between the two replays the batch on
// recovery (re-applying a batch is idempotent: adds under set
// semantics, deletes because retracting an absent triple is a no-op).
func (l *Log) Append(kind OpKind, payload []byte) error {
	if kind != OpAdd && kind != OpDelete {
		return fmt.Errorf("wal: unknown op kind %d", kind)
	}
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record")
	}
	if len(payload) >= MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.syncErr != nil {
		return l.syncErr
	}
	// One buffer, one write: a partial record must never linger in the
	// file, or later successful appends would land after the torn bytes
	// and recovery's CRC scan would truncate them — acknowledged writes
	// silently lost. On any write failure, roll the file back to the
	// last good offset; if even that fails, poison the log (sticky
	// error) rather than keep appending past garbage.
	rec := EncodeFrame(kind, payload)
	if _, err := l.f.Write(rec); err != nil {
		if terr := l.f.Truncate(l.size); terr == nil {
			if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
				l.syncErr = serr
			}
		} else {
			l.syncErr = terr
		}
		return err
	}
	l.size += int64(len(rec))
	l.records++
	if l.m != nil {
		l.m.Appends.Inc()
		l.m.AppendBytes.Add(uint64(len(rec)))
	}
	switch l.policy {
	case SyncAlways:
		return l.fsync()
	case SyncInterval:
		l.dirty = true
	}
	return nil
}

// Sync flushes pending appends to disk. A background-flusher error is
// sticky: it resurfaces on every later Append/Sync/Close so an
// unwritable disk cannot be silently ignored.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.syncErr != nil {
		return l.syncErr
	}
	if !l.dirty {
		return nil
	}
	if err := l.fsync(); err != nil {
		l.syncErr = err
		return err
	}
	l.dirty = false
	return nil
}

// fsync syncs the file, timing the call into the instrument set when
// one is attached. Callers hold mu.
func (l *Log) fsync() error {
	if l.m == nil {
		return l.f.Sync()
	}
	start := time.Now()
	err := l.f.Sync()
	l.m.Fsyncs.Inc()
	l.m.FsyncSeconds.ObserveDuration(time.Since(start))
	return err
}

// Close stops the flusher, does a final sync, and closes the file.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
		l.stop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	serr := l.syncLocked()
	if err := l.f.Close(); err != nil {
		return err
	}
	return serr
}

// Generation returns the generation the log was created under.
func (l *Log) Generation() uint64 { return l.gen }

// Size returns the current file size in bytes (header included).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Records returns how many records the log holds.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// The record stream: one generation-addressed, resumable iterator over
// committed log records that both crash recovery and replication
// consume. Open-time replay walks the frames of the on-disk log through
// frameScanner; Manager.StreamFrom hands the same frames to a network
// tailer, bounded at the commit point observed when the stream was
// opened. Recovery is thereby "replicate from local disk": the two
// paths differ only in where the bytes come from and where the batches
// go.
//
// A Position (generation, record index) addresses a record boundary.
// Record indexes rather than byte offsets keep the coordinate stable
// across leader restarts (recovery truncates torn tails but never
// reorders records). A position that no longer exists on disk —
// its log was pruned by a checkpoint, or the leader lost unsynced
// records in a crash — resolves to ErrTruncated, and the consumer
// re-bootstraps from the newest snapshot image.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"inferray/internal/rdf"
)

// Position addresses a record boundary in a manager's record stream:
// Records records of generation Generation have been consumed.
type Position struct {
	Generation uint64 `json:"generation"`
	Records    int    `json:"records"`
}

// String formats the position the way the HTTP API spells it.
func (p Position) String() string {
	return fmt.Sprintf("%d/%d", p.Generation, p.Records)
}

// ErrTruncated reports that a stream position no longer exists on disk:
// a checkpoint pruned the log that held it, or the records past it were
// lost with an unsynced tail in a crash. The consumer cannot resume —
// it must re-bootstrap from the newest snapshot image and stream from
// the position the image advertises.
var ErrTruncated = errors.New("wal: stream position truncated by a checkpoint")

// ErrCorruptFrame reports a frame that fails its length, CRC, or
// op-kind validation. On disk this is a torn tail (recovery truncates
// it); on the wire it means the connection died mid-frame and the
// consumer should reconnect from its last applied position.
var ErrCorruptFrame = errors.New("wal: torn or corrupt frame")

// frameScanner reads consecutive record frames from one byte stream.
// It is the single framing reader behind Open-time replay, StreamFrom,
// and the wire-format FrameReader.
type frameScanner struct {
	r       io.Reader
	payload []byte // reused across calls
}

// next returns the next frame's op kind and body. io.EOF means a clean
// end at a record boundary; any torn, corrupt, or unknown-kind frame
// returns ErrCorruptFrame. frameLen is the full on-stream frame size.
// body aliases an internal buffer valid only until the next call.
func (s *frameScanner) next() (kind OpKind, body []byte, frameLen int64, err error) {
	var rh [recHeader]byte
	if _, err := io.ReadFull(s.r, rh[:]); err != nil {
		if err == io.EOF {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, fmt.Errorf("frame header: %w", ErrCorruptFrame)
	}
	n := binary.LittleEndian.Uint32(rh[:4])
	crc := binary.LittleEndian.Uint32(rh[4:])
	if n == 0 || n > MaxRecordBytes {
		return 0, nil, 0, fmt.Errorf("frame length %d: %w", n, ErrCorruptFrame)
	}
	if uint32(cap(s.payload)) < n {
		s.payload = make([]byte, n)
	}
	s.payload = s.payload[:n]
	if _, err := io.ReadFull(s.r, s.payload); err != nil {
		return 0, nil, 0, fmt.Errorf("frame body: %w", ErrCorruptFrame)
	}
	if crc32.Checksum(s.payload, castagnoli) != crc {
		return 0, nil, 0, fmt.Errorf("frame crc: %w", ErrCorruptFrame)
	}
	// The kind byte is inside the CRC, so reaching here means it was
	// written as-is — an unknown value is a writer from the future (or a
	// logic bug), and guessing at its semantics could silently corrupt
	// the store. Corruption rules apply: stop, don't guess.
	kind = OpKind(s.payload[0])
	if kind != OpAdd && kind != OpDelete {
		return 0, nil, 0, fmt.Errorf("frame op kind %d: %w", byte(kind), ErrCorruptFrame)
	}
	return kind, s.payload[1:], recHeader + int64(n), nil
}

// EncodeFrame serializes one record as a frame — the bytes Append writes
// to the log, and the bytes shipped over an arbitrary byte stream (the
// GET /wal response body).
func EncodeFrame(kind OpKind, payload []byte) []byte {
	rec := make([]byte, recHeader+1+len(payload))
	body := rec[recHeader:]
	body[0] = byte(kind)
	copy(body[1:], payload)
	binary.LittleEndian.PutUint32(rec[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(body, castagnoli))
	return rec
}

// DecodeBatch parses one record payload — an N-Triples document — back
// into the batch Manager.Append serialized.
func DecodeBatch(payload []byte) ([]rdf.Triple, error) {
	var batch []rdf.Triple
	err := rdf.ReadNTriples(bytes.NewReader(payload), func(t rdf.Triple) error {
		batch = append(batch, t)
		return nil
	})
	return batch, err
}

// FrameReader decodes record frames from a byte stream — the
// consumer-side counterpart of EncodeFrame, used by a follower tailing
// GET /wal. Every frame is CRC-checked before it is returned.
type FrameReader struct {
	sc frameScanner
}

// NewFrameReader wraps r in a frame decoder.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{sc: frameScanner{r: r}}
}

// Next returns the next frame's op kind and payload. io.EOF signals a
// clean end on a frame boundary; a stream cut mid-frame (or corrupted
// in flight) returns an error wrapping ErrCorruptFrame. The payload
// aliases an internal buffer valid only until the next call.
func (fr *FrameReader) Next() (OpKind, []byte, error) {
	kind, body, _, err := fr.sc.next()
	return kind, body, err
}

// Stream is a bounded cursor over the committed records of one log
// generation, opened by Manager.StreamFrom. It reads a private file
// handle, so appends, checkpoints, and other streams proceed
// concurrently; the stream ends (io.EOF) at the commit point observed
// when it was opened. Close must be called to release the handle.
type Stream struct {
	f   *os.File
	sc  frameScanner
	pos Position
}

// Next returns the next record's op kind and N-Triples payload. io.EOF
// means the stream reached its bound — the caller re-opens from Pos()
// to observe records appended since. The payload aliases an internal
// buffer valid only until the next call.
func (s *Stream) Next() (OpKind, []byte, error) {
	kind, body, _, err := s.sc.next()
	if err != nil {
		return kind, body, err
	}
	s.pos.Records++
	return kind, body, nil
}

// Pos returns the position after the last record Next delivered — the
// resume point for the successor stream.
func (s *Stream) Pos() Position { return s.pos }

// Close releases the stream's file handle.
func (s *Stream) Close() error { return s.f.Close() }

// TailPosition returns the position one past the last committed record
// — where a fully caught-up consumer stands.
func (m *Manager) TailPosition() Position {
	m.mu.Lock()
	gen, cur := m.gen, m.cur
	m.mu.Unlock()
	return Position{Generation: gen, Records: cur.Records()}
}

// SnapshotFile returns the path of the current generation's snapshot
// image, for bootstrap shipping. ok is false when the generation has no
// image yet (a fresh directory before its first checkpoint): consumers
// start empty and stream from (gen, 0).
func (m *Manager) SnapshotFile() (path string, gen uint64, ok bool) {
	m.mu.Lock()
	gen = m.gen
	m.mu.Unlock()
	p := m.snapPath(gen)
	if _, err := os.Stat(p); err != nil {
		return "", gen, false
	}
	return p, gen, true
}

// StreamFrom opens a bounded stream over the committed records at and
// after pos. A consumer that was fully caught up on the previous
// generation when a checkpoint rotated it away resumes transparently at
// the start of the current log (the checkpoint image holds exactly the
// records it consumed). Any older or lost position returns an error
// wrapping ErrTruncated: the records between it and the tail live only
// inside the snapshot image, so the consumer must re-bootstrap.
//
// The stream observes the commit point at open time; records appended
// later are picked up by re-opening from Stream.Pos(). Safe to call
// concurrently with appends and checkpoints.
func (m *Manager) StreamFrom(pos Position) (*Stream, error) {
	m.mu.Lock()
	gen, cur, prev := m.gen, m.cur, m.prevTail
	m.mu.Unlock()
	if gen > prev.Generation && pos == prev {
		// Caught up on the rotated-away log: continue on the current one.
		pos = Position{Generation: gen}
	}
	if pos.Generation != gen {
		return nil, fmt.Errorf("wal: stream from %s: current generation is %d: %w", pos, gen, ErrTruncated)
	}
	// Size is updated after each append's single write completes, so
	// every byte below end is a whole committed record; records is read
	// second, so records-at-end >= pos bound checks stay conservative.
	end := cur.Size()
	if pos.Records > cur.Records() {
		// The consumer is ahead of the durable log: the leader crashed
		// and lost an unsynced tail the consumer had already applied.
		return nil, fmt.Errorf("wal: stream from %s: log holds %d records: %w", pos, cur.Records(), ErrTruncated)
	}
	f, err := os.Open(cur.Path())
	if err != nil {
		if os.IsNotExist(err) {
			// Pruned between the snapshot above and the open: a
			// checkpoint won the race. The caller retries and resolves
			// against the new generation.
			return nil, fmt.Errorf("wal: stream from %s: %w", pos, ErrTruncated)
		}
		return nil, err
	}
	var head [headerSize]byte
	if _, err := io.ReadFull(f, head[:]); err != nil || string(head[:4]) != logMagic {
		f.Close()
		return nil, fmt.Errorf("wal: stream from %s: unreadable log header: %w", pos, ErrCorruptFrame)
	}
	s := &Stream{
		f:   f,
		sc:  frameScanner{r: bufio.NewReaderSize(io.LimitReader(f, end-headerSize), 1<<16)},
		pos: Position{Generation: gen},
	}
	for s.pos.Records < pos.Records {
		if _, _, err := s.Next(); err != nil {
			f.Close()
			if err == io.EOF {
				// Bounded at a commit point below pos despite the record
				// count passing: the only way is a concurrent rotation
				// truncating our view. Resolve as truncation.
				return nil, fmt.Errorf("wal: stream from %s: %w", pos, ErrTruncated)
			}
			return nil, err
		}
	}
	return s, nil
}

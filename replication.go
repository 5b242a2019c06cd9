package inferray

import (
	"fmt"
	"io"

	"inferray/internal/wal"
)

// This file is the Reasoner's replication surface. A durable reasoner
// (the leader) exposes its durability state as a generation-addressed
// record stream plus a snapshot image — the exact artifacts its own
// crash recovery consumes — and an in-memory reasoner (a follower)
// re-applies that stream through the same incremental-materialization
// path the leader ran. Shipping the *asserted* stream and re-deriving
// on each replica (rather than shipping closures) is what keeps the
// protocol small: derived state is cheap to rebuild from inputs.

// WALPosition addresses a record boundary in the leader's write-ahead
// log: Records records of checkpoint generation Generation have been
// consumed. It is the cursor a follower persists between reconnects.
type WALPosition = wal.Position

// WALStream is a bounded cursor over committed leader WAL records,
// opened by StreamWAL. Next returns io.EOF at the commit point observed
// at open time; re-open from Pos() to keep tailing.
type WALStream = wal.Stream

// WALOp is a replication record's operation kind.
type WALOp = wal.OpKind

// The replication record kinds: an ingested batch and a retracted one.
const (
	WALAdd    = wal.OpAdd
	WALDelete = wal.OpDelete
)

// ErrWALTruncated reports that a stream position no longer exists on
// the leader's disk — a checkpoint pruned it, or the leader lost an
// unsynced tail in a crash. The follower must re-bootstrap from the
// newest snapshot image (RestoreImage) and stream from the position it
// advertises.
var ErrWALTruncated = wal.ErrTruncated

// StreamWAL opens a bounded stream over the committed WAL records at
// and after from — the same records Open-time recovery replays, served
// to a network tailer. A position a checkpoint has pruned returns an
// error wrapping ErrWALTruncated. Only durable reasoners have a WAL;
// others return ErrNotDurable.
func (r *Reasoner) StreamWAL(from WALPosition) (*WALStream, error) {
	if r.dur == nil {
		return nil, ErrNotDurable
	}
	return r.dur.StreamFrom(from)
}

// WALTail returns the position one past the last committed WAL record —
// where a fully caught-up follower stands. ErrNotDurable without a
// durability layer.
func (r *Reasoner) WALTail() (WALPosition, error) {
	if r.dur == nil {
		return WALPosition{}, ErrNotDurable
	}
	return r.dur.TailPosition(), nil
}

// SnapshotFile returns the path of the current generation's snapshot
// image for bootstrap shipping. ok is false when the generation has no
// image yet (a fresh data directory before its first checkpoint):
// followers start empty and stream from (gen, 0). ErrNotDurable without
// a durability layer.
func (r *Reasoner) SnapshotFile() (path string, gen uint64, ok bool, err error) {
	if r.dur == nil {
		return "", 0, false, ErrNotDurable
	}
	path, gen, ok = r.dur.SnapshotFile()
	return path, gen, ok, nil
}

// ApplyReplicated applies one shipped WAL record to an in-memory
// follower through the same apply the leader ran when it logged the
// record — intern + incremental Materialize for an add, Retract for a
// delete, one generation bump per record that changed the closure — so
// a follower that has applied the same record sequence reports the same
// Generation() and holds the byte-identical closure. Refused on a
// durable reasoner: records applied here bypass the local WAL, which
// would silently fork the local data directory from the replicated
// history.
func (r *Reasoner) ApplyReplicated(op WALOp, batch []Triple) error {
	if r.dur != nil {
		return fmt.Errorf("inferray: ApplyReplicated on a durable reasoner would fork its data directory from the replicated history")
	}
	return r.applyRecord(op, batch)
}

// RestoreImage replaces the reasoner's entire state with the snapshot
// image read from src — the follower bootstrap (and re-bootstrap after
// ErrWALTruncated), fed straight from the leader's response body. The
// image is verified and its fragment matched exactly as LoadSnapshot
// does, and nothing is replaced unless the whole stream passes; the
// store generation resumes from the image's header, and any staged
// triples are discarded with the old state. It returns the WAL position
// the image pairs with: stream from there to tail everything newer.
// Concurrent readers block for the duration of the swap and then see
// the restored closure. Refused on a durable reasoner for the same
// reason as ApplyReplicated.
func (r *Reasoner) RestoreImage(src io.Reader) (WALPosition, error) {
	if r.dur != nil {
		return WALPosition{}, fmt.Errorf("inferray: RestoreImage on a durable reasoner would fork its data directory from the replicated history")
	}
	return r.restore("image", src)
}

package wal

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"inferray/internal/rdf"
	"inferray/internal/snapshot"
)

// drain reads a stream to EOF, returning the (kind, payload) pairs.
func drain(t *testing.T, s *Stream) (kinds []OpKind, payloads []string) {
	t.Helper()
	for {
		kind, body, err := s.Next()
		if err == io.EOF {
			return kinds, payloads
		}
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		kinds = append(kinds, kind)
		payloads = append(payloads, string(body))
	}
}

// A stream opened at the origin replays every committed record; one
// opened at Pos() of a drained stream sees exactly the records appended
// since — the resumable-cursor contract replication tails with.
func TestStreamFromResume(t *testing.T) {
	dir := t.TempDir()
	ts := newTestState()
	m := openManager(t, dir, ts)
	defer m.Close()

	if err := m.Append(OpAdd, []rdf.Triple{triple("<a>", "<b>")}); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(OpDelete, []rdf.Triple{triple("<a>", "<b>")}); err != nil {
		t.Fatal(err)
	}

	s, err := m.StreamFrom(Position{})
	if err != nil {
		t.Fatal(err)
	}
	kinds, payloads := drain(t, s)
	s.Close()
	if len(kinds) != 2 || kinds[0] != OpAdd || kinds[1] != OpDelete {
		t.Fatalf("kinds = %v, want [add delete]", kinds)
	}
	if want := "<a> <p> <b> .\n"; payloads[0] != want || payloads[1] != want {
		t.Fatalf("payloads = %q", payloads)
	}
	pos := s.Pos()
	if pos != m.TailPosition() {
		t.Fatalf("drained pos %s != tail %s", pos, m.TailPosition())
	}

	// Caught up: an immediate re-open yields nothing.
	s2, err := m.StreamFrom(pos)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := drain(t, s2); len(k) != 0 {
		t.Fatalf("caught-up stream returned %d records", len(k))
	}
	s2.Close()

	// New appends become visible by re-opening from the same position.
	if err := m.Append(OpAdd, []rdf.Triple{triple("<c>", "<d>")}); err != nil {
		t.Fatal(err)
	}
	s3, err := m.StreamFrom(pos)
	if err != nil {
		t.Fatal(err)
	}
	_, payloads3 := drain(t, s3)
	s3.Close()
	if len(payloads3) != 1 || payloads3[0] != "<c> <p> <d> .\n" {
		t.Fatalf("resumed payloads = %q", payloads3)
	}
}

// A consumer standing exactly at the rotated-away log's tail resumes at
// the new generation's start (the image holds everything it consumed);
// any older position is truncated and must re-bootstrap.
func TestStreamFromAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ts := newTestState()
	m := openManager(t, dir, ts)
	defer m.Close()

	m.Append(OpAdd, []rdf.Triple{triple("<a>", "<b>")})
	m.Append(OpAdd, []rdf.Triple{triple("<c>", "<d>")})
	oldTail := m.TailPosition()
	if _, err := m.Checkpoint(ts.d, ts.st, snapshot.Meta{}); err != nil {
		t.Fatal(err)
	}

	// Caught-up continuation: (oldGen, 2) → (newGen, 0).
	s, err := m.StreamFrom(oldTail)
	if err != nil {
		t.Fatalf("caught-up position after checkpoint: %v", err)
	}
	if got := s.Pos(); got.Generation != oldTail.Generation+1 || got.Records != 0 {
		t.Fatalf("resumed at %s, want %d/0", got, oldTail.Generation+1)
	}
	s.Close()

	// Anything older than the rotated tail is only inside the image.
	for _, pos := range []Position{
		{Generation: oldTail.Generation, Records: 0},
		{Generation: oldTail.Generation, Records: 1},
	} {
		if _, err := m.StreamFrom(pos); !errors.Is(err, ErrTruncated) {
			t.Fatalf("StreamFrom(%s) = %v, want ErrTruncated", pos, err)
		}
	}

	// Records appended after the rotation ship from the new log, and a
	// post-checkpoint snapshot file exists for bootstrap.
	m.Append(OpAdd, []rdf.Triple{triple("<e>", "<f>")})
	s2, err := m.StreamFrom(Position{Generation: oldTail.Generation + 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, p := drain(t, s2); len(p) != 1 || p[0] != "<e> <p> <f> .\n" {
		t.Fatalf("post-checkpoint payloads = %q", p)
	}
	s2.Close()
	if _, gen, ok := m.SnapshotFile(); !ok || gen != oldTail.Generation+1 {
		t.Fatalf("SnapshotFile = gen %d ok=%t, want gen %d present", gen, ok, oldTail.Generation+1)
	}
}

// A position ahead of the durable log (the leader lost an unsynced tail
// the consumer had applied) and a generation from the future both
// resolve to ErrTruncated rather than shipping wrong records.
func TestStreamFromImpossiblePositions(t *testing.T) {
	dir := t.TempDir()
	ts := newTestState()
	m := openManager(t, dir, ts)
	defer m.Close()
	m.Append(OpAdd, []rdf.Triple{triple("<a>", "<b>")})

	tail := m.TailPosition()
	for _, pos := range []Position{
		{Generation: tail.Generation, Records: tail.Records + 1},
		{Generation: tail.Generation + 3, Records: 0},
	} {
		if _, err := m.StreamFrom(pos); !errors.Is(err, ErrTruncated) {
			t.Fatalf("StreamFrom(%s) = %v, want ErrTruncated", pos, err)
		}
	}
}

// EncodeFrame and FrameReader are wire-format inverses, and the reader
// treats any mid-frame cut or bit flip as ErrCorruptFrame — never as a
// record.
func TestFrameRoundtrip(t *testing.T) {
	var wire bytes.Buffer
	wire.Write(EncodeFrame(OpAdd, []byte("<a> <p> <b> .\n")))
	wire.Write(EncodeFrame(OpDelete, []byte("<c> <p> <d> .\n")))
	raw := wire.Bytes()

	fr := NewFrameReader(bytes.NewReader(raw))
	kind, body, err := fr.Next()
	if err != nil || kind != OpAdd || string(body) != "<a> <p> <b> .\n" {
		t.Fatalf("frame 1 = %v %q %v", kind, body, err)
	}
	kind, body, err = fr.Next()
	if err != nil || kind != OpDelete || string(body) != "<c> <p> <d> .\n" {
		t.Fatalf("frame 2 = %v %q %v", kind, body, err)
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("clean end = %v, want io.EOF", err)
	}

	// Cut anywhere mid-frame: corrupt, not EOF (frame 1 is 8+15 bytes).
	for _, cut := range []int{3, recHeader, recHeader + 5} {
		fr := NewFrameReader(bytes.NewReader(raw[:cut]))
		if _, _, err := fr.Next(); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("cut at %d = %v, want ErrCorruptFrame", cut, err)
		}
	}

	// Any flipped payload bit fails the CRC.
	flipped := append([]byte(nil), raw...)
	flipped[recHeader+3] ^= 0x40
	fr = NewFrameReader(bytes.NewReader(flipped))
	if _, _, err := fr.Next(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("flipped bit = %v, want ErrCorruptFrame", err)
	}

	// An unknown op kind is CRC-valid garbage from the future: corrupt.
	bogus := EncodeFrame(OpKind(9), []byte("x"))
	fr = NewFrameReader(bytes.NewReader(bogus))
	if _, _, err := fr.Next(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("unknown kind = %v, want ErrCorruptFrame", err)
	}
}

package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/snapshot"
	"inferray/internal/store"
)

// testState is a toy "engine" for manager tests: a dictionary + store
// the hooks restore into and replay onto, standing in for the reasoner.
type testState struct {
	d  *dictionary.Dictionary
	st *store.Store
}

func newTestState() *testState {
	d := dictionary.NewWithVocabulary(rdf.VocabularyProperties, rdf.VocabularyResources)
	return &testState{d: d, st: store.New(d.NumProperties())}
}

func (ts *testState) apply(_ OpKind, batch []rdf.Triple) error {
	for _, t := range batch {
		p := ts.d.EncodeProperty(t.P)
		s := ts.d.EncodeResource(t.S)
		o := ts.d.EncodeResource(t.O)
		ts.st.Grow(ts.d.NumProperties())
		ts.st.Add(dictionary.PropIndex(p), s, o)
	}
	ts.st.Normalize()
	return nil
}

func (ts *testState) hooks() Hooks {
	return Hooks{
		Restore: func(d *dictionary.Dictionary, st *store.Store, _ snapshot.Meta) error {
			ts.d, ts.st = d, st
			return nil
		},
		Apply: ts.apply,
	}
}

func triple(s, o string) rdf.Triple {
	return rdf.Triple{S: s, P: "<p>", O: o}
}

func openManager(t *testing.T, dir string, ts *testState) *Manager {
	t.Helper()
	m, err := OpenManager(dir, Options{Sync: SyncAlways}, ts.hooks())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustContain(t *testing.T, ts *testState, s, o string) {
	t.Helper()
	pid, ok := ts.d.Lookup("<p>")
	if !ok {
		t.Fatalf("property <p> unknown")
	}
	sid, ok1 := ts.d.Lookup(s)
	oid, ok2 := ts.d.Lookup(o)
	if !ok1 || !ok2 || !ts.st.Contains(dictionary.PropIndex(pid), sid, oid) {
		t.Fatalf("state missing ⟨%s <p> %s⟩", s, o)
	}
}

// The core lifecycle: append → crash (no Close) → recover via replay;
// checkpoint → crash → recover via snapshot; post-checkpoint appends
// land in the new log and only they are replayed.
func TestManagerLifecycle(t *testing.T) {
	dir := t.TempDir()
	ts := newTestState()
	m := openManager(t, dir, ts)
	if r := m.Recovery(); r.SnapshotLoaded || r.ReplayedRecords != 0 {
		t.Fatalf("fresh dir recovered something: %+v", r)
	}

	b1 := []rdf.Triple{triple("<a>", "<b>"), triple("<b>", "<c>")}
	b2 := []rdf.Triple{triple("<c>", "<d>")}
	for _, b := range [][]rdf.Triple{b1, b2} {
		if err := m.Append(OpAdd, b); err != nil {
			t.Fatal(err)
		}
		if err := ts.apply(OpAdd, b); err != nil {
			t.Fatal(err)
		}
	}
	// Simulated crash: no Close. SyncAlways means both records are on disk.
	ts2 := newTestState()
	m2 := openManager(t, dir, ts2)
	r := m2.Recovery()
	if r.SnapshotLoaded || r.ReplayedRecords != 2 || r.ReplayedTriples != 3 || r.TruncatedTail {
		t.Fatalf("recovery after crash: %+v", r)
	}
	mustContain(t, ts2, "<a>", "<b>")
	mustContain(t, ts2, "<c>", "<d>")

	// Checkpoint: image written, log rotated and emptied, old gen pruned.
	cs, err := m2.Checkpoint(ts2.d, ts2.st, snapshot.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Generation != 1 || cs.SnapshotBytes == 0 {
		t.Fatalf("checkpoint stats: %+v", cs)
	}
	if st := m2.Stats(); st.WALRecords != 0 || st.Generation != 1 {
		t.Fatalf("post-checkpoint stats: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-0000000000000000.log")); !os.IsNotExist(err) {
		t.Fatal("superseded log not pruned")
	}

	b3 := []rdf.Triple{triple("<d>", "<e>")}
	if err := m2.Append(OpAdd, b3); err != nil {
		t.Fatal(err)
	}
	ts2.apply(OpAdd, b3)

	// Crash again: recovery must load the gen-1 image and replay only b3.
	ts3 := newTestState()
	m3 := openManager(t, dir, ts3)
	r = m3.Recovery()
	if !r.SnapshotLoaded || r.SnapshotMeta.Generation != 1 || r.ReplayedRecords != 1 || r.ReplayedTriples != 1 {
		t.Fatalf("recovery after checkpoint+append: %+v", r)
	}
	for _, pair := range [][2]string{{"<a>", "<b>"}, {"<b>", "<c>"}, {"<c>", "<d>"}, {"<d>", "<e>"}} {
		mustContain(t, ts3, pair[0], pair[1])
	}
	if ts3.st.Size() != 4 {
		t.Fatalf("recovered %d triples, want 4", ts3.st.Size())
	}
	if err := m3.Close(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m2.Close()
}

// A corrupt WAL tail is truncated, not replayed: the surviving prefix
// recovers and the manager keeps serving.
func TestManagerCorruptTail(t *testing.T) {
	dir := t.TempDir()
	ts := newTestState()
	m := openManager(t, dir, ts)
	m.Append(OpAdd, []rdf.Triple{triple("<a>", "<b>")})
	m.Append(OpAdd, []rdf.Triple{triple("<c>", "<d>")})
	m.Close()

	logPath := filepath.Join(dir, "wal-0000000000000000.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01 // flip a payload bit in the last record
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ts2 := newTestState()
	m2 := openManager(t, dir, ts2)
	defer m2.Close()
	r := m2.Recovery()
	if !r.TruncatedTail || r.ReplayedRecords != 1 {
		t.Fatalf("corrupt tail recovery: %+v", r)
	}
	mustContain(t, ts2, "<a>", "<b>")
	if ts2.st.Size() != 1 {
		t.Fatalf("corrupted record replayed: %d triples", ts2.st.Size())
	}
}

// When every snapshot image is corrupt, OpenManager refuses to start
// (serving the WAL tail alone would look healthy while silently
// dropping the checkpointed data, and the next checkpoint would delete
// the corrupt image for good). Explicitly removing the image is the
// operator's accept-the-loss override.
func TestManagerCorruptSnapshotRefusesStart(t *testing.T) {
	dir := t.TempDir()
	ts := newTestState()
	m := openManager(t, dir, ts)
	b1 := []rdf.Triple{triple("<a>", "<b>")}
	m.Append(OpAdd, b1)
	ts.apply(OpAdd, b1)
	if _, err := m.Checkpoint(ts.d, ts.st, snapshot.Meta{}); err != nil {
		t.Fatal(err)
	}
	b2 := []rdf.Triple{triple("<c>", "<d>")}
	m.Append(OpAdd, b2)
	ts.apply(OpAdd, b2)
	if _, err := m.Checkpoint(ts.d, ts.st, snapshot.Meta{}); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Corrupt the gen-2 image. Gen-1's image was pruned at the second
	// checkpoint, so no valid image remains: OpenManager must refuse.
	snap2 := filepath.Join(dir, "snap-0000000000000002.img")
	data, err := os.ReadFile(snap2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(snap2, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ts2 := newTestState()
	_, err = OpenManager(dir, Options{Sync: SyncAlways}, ts2.hooks())
	if err == nil || !strings.Contains(err.Error(), "refusing to start") {
		t.Fatalf("corrupt-only-image open: %v", err)
	}

	// Operator override: delete the corrupt image. The manager starts
	// from the surviving WAL tail (empty here — gen-2's log has no
	// post-checkpoint records).
	if err := os.Remove(snap2); err != nil {
		t.Fatal(err)
	}
	ts3 := newTestState()
	m3 := openManager(t, dir, ts3)
	defer m3.Close()
	if r := m3.Recovery(); r.SnapshotLoaded || r.CorruptSnapshots != 0 {
		t.Fatalf("post-override recovery: %+v", r)
	}
}

func TestManagerShouldRotate(t *testing.T) {
	dir := t.TempDir()
	ts := newTestState()
	m, err := OpenManager(dir, Options{Sync: SyncNone, RotateRecords: 2, RotateBytes: -1}, ts.hooks())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.ShouldRotate() {
		t.Fatal("fresh manager wants rotation")
	}
	m.Append(OpAdd, []rdf.Triple{triple("<a>", "<b>")})
	if m.ShouldRotate() {
		t.Fatal("one record crossed a 2-record threshold")
	}
	m.Append(OpAdd, []rdf.Triple{triple("<c>", "<d>")})
	if !m.ShouldRotate() {
		t.Fatal("threshold crossed but ShouldRotate false")
	}
	if _, err := m.Checkpoint(ts.d, ts.st, snapshot.Meta{}); err != nil {
		t.Fatal(err)
	}
	if m.ShouldRotate() {
		t.Fatal("rotation did not reset the counters")
	}

	mb, err := OpenManager(t.TempDir(), Options{Sync: SyncNone, RotateBytes: 10, RotateRecords: -1}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	mb.Append(OpAdd, []rdf.Triple{triple("<aaaaaaaa>", "<bbbbbbbb>")})
	if !mb.ShouldRotate() {
		t.Fatal("byte threshold crossed but ShouldRotate false")
	}
}

// Leftover temp files from an interrupted image write are cleaned up
// and never mistaken for images.
func TestManagerIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "snap-0000000000000009.img.tmp123")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := newTestState()
	m := openManager(t, dir, ts)
	defer m.Close()
	if r := m.Recovery(); r.SnapshotLoaded || r.CorruptSnapshots != 0 {
		t.Fatalf("temp file treated as image: %+v", r)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp file not cleaned up")
	}
}

// A data directory whose log was written in another format version
// stops OpenManager — the file is not a torn create to be rewritten
// empty, and nothing in it is applied.
func TestOpenManagerRefusesOtherVersionLog(t *testing.T) {
	for _, v := range []uint32{1, logVersion + 1} {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal-0000000000000000.log")
		writeRawLog(t, path, v, []byte("<a> <p> <b> .\n"))
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ts := newTestState()
		m, err := OpenManager(dir, Options{Sync: SyncAlways}, ts.hooks())
		if err == nil {
			m.Close()
			t.Fatalf("version-%d log: OpenManager succeeded", v)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("version-%d refusal %q does not name the file", v, err)
		}
		if ts.st.Size() != 0 {
			t.Errorf("version-%d log: %d triples applied", v, ts.st.Size())
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
			t.Errorf("version-%d log was modified by the refused open", v)
		}
	}
}

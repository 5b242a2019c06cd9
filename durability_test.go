package inferray_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inferray"
	"inferray/internal/datagen"
)

// durOpts: fsync every batch so a simulated crash (dropping the
// reasoner without Close) loses nothing acknowledged.
var durOpts = inferray.DurabilityOptions{Sync: "always"}

func openDurable(t *testing.T, dir string, opts ...inferray.Option) *inferray.Reasoner {
	t.Helper()
	r, err := inferray.Open(append(opts, inferray.WithDurability(dir, durOpts))...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sameClosure fails unless both reasoners hold exactly the same triple
// set.
func sameClosure(t *testing.T, got, want *inferray.Reasoner) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("closure size %d, want %d", got.Size(), want.Size())
	}
	for _, tr := range want.AllTriples() {
		if !got.Holds(tr.S, tr.P, tr.O) {
			t.Fatalf("closure missing ⟨%s %s %s⟩", tr.S, tr.P, tr.O)
		}
	}
}

// Crash-recovery equivalence at the library level, as a conformance
// script: batches materialized into a durable reasoner that is never
// closed (a crash) must all be recovered from the WAL alone, with the
// oracle's closure, and the recovered reasoner keeps absorbing deltas.
func TestDurableCrashRecoveryEquivalence(t *testing.T) {
	batches := [][]inferray.Triple{
		{{S: "<human>", P: inferray.SubClassOf, O: "<mammal>"}, {S: "<mammal>", P: inferray.SubClassOf, O: "<animal>"}},
		{{S: "<Bart>", P: inferray.Type, O: "<human>"}},
		{{S: "<hasPet>", P: inferray.Domain, O: "<human>"}, {S: "<Lisa>", P: "<hasPet>", O: "<cat>"}},
	}
	w := newConformance(t, scriptConfig{frag: inferray.RDFSDefault, encoding: true})
	for _, b := range batches {
		w.run('a', func() { w.add(b) })
	}
	// Hard stop: no Close, no checkpoint. The WAL alone must carry it.
	w.run('x', w.crash)
	if ds, _ := w.leader.DurabilityStats(); ds.RecoveredFromSnapshot || ds.ReplayedRecords != len(batches) {
		t.Fatalf("recovery stats: %+v", ds)
	}
	w.run('a', func() { w.add([]inferray.Triple{{S: "<Maggie>", P: inferray.Type, O: "<human>"}}) })
	if !w.leader.Holds("<Maggie>", inferray.Type, "<animal>") {
		t.Fatal("post-recovery delta not materialized")
	}
}

// Checkpoint writes an image, truncates the log, and recovery then
// loads the image and replays only post-checkpoint batches.
func TestDurableCheckpointAndRecover(t *testing.T) {
	dir := t.TempDir()
	r := openDurable(t, dir)
	mustAdd(t, r, "<a>", inferray.SubClassOf, "<b>")
	mustAdd(t, r, "<b>", inferray.SubClassOf, "<c>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	info, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || info.Triples != r.StoredSize() || info.SnapshotBytes == 0 {
		t.Fatalf("checkpoint info: %+v", info)
	}
	if ds, _ := r.DurabilityStats(); ds.WALRecords != 0 || ds.Generation != 1 {
		t.Fatalf("post-checkpoint stats: %+v", ds)
	}
	mustAdd(t, r, "<x>", inferray.Type, "<a>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	want := r.Size()
	// Crash.

	r2 := openDurable(t, dir)
	defer r2.Close()
	ds, _ := r2.DurabilityStats()
	if !ds.RecoveredFromSnapshot || ds.RecoveredGeneration != 1 || ds.ReplayedRecords != 1 {
		t.Fatalf("recovery stats: %+v", ds)
	}
	if r2.Size() != want {
		t.Fatalf("recovered %d triples, want %d", r2.Size(), want)
	}
	if !r2.Holds("<x>", inferray.Type, "<c>") {
		t.Fatal("recovered closure lost an inference")
	}
}

// Automatic rotation: crossing the record threshold checkpoints without
// an explicit call.
func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r, err := inferray.Open(inferray.WithDurability(dir, inferray.DurabilityOptions{
		Sync:              "always",
		CheckpointRecords: 2,
		CheckpointBytes:   -1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 3; i++ {
		mustAdd(t, r, fmt.Sprintf("<s%d>", i), inferray.Type, "<c>")
		if _, err := r.Materialize(); err != nil {
			t.Fatal(err)
		}
	}
	ds, _ := r.DurabilityStats()
	if ds.Generation == 0 {
		t.Fatalf("no automatic checkpoint ran: %+v", ds)
	}
	if ds.CheckpointError != "" {
		t.Fatalf("auto checkpoint failed: %s", ds.CheckpointError)
	}
}

// A failed automatic checkpoint does not fail the write that crossed
// the threshold: the batch is applied, DurabilityStats names the
// failure, and the next threshold checkpoint clears it. A directory at
// the next image path makes the image's rename fail, even for root.
func TestDurableAutoCheckpointFailure(t *testing.T) {
	dir := t.TempDir()
	r, err := inferray.Open(inferray.WithDurability(dir, inferray.DurabilityOptions{
		Sync:              "always",
		CheckpointRecords: 2,
		CheckpointBytes:   -1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	write := func(i int) {
		t.Helper()
		mustAdd(t, r, fmt.Sprintf("<s%d>", i), inferray.Type, "<c>")
		if _, err := r.Materialize(); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	mustAdd(t, r, "<c>", inferray.SubClassOf, "<d>")
	blocker := filepath.Join(dir, fmt.Sprintf("snap-%016d.img", 1))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	write(0)
	write(1) // the second record crosses the threshold
	ds, _ := r.DurabilityStats()
	if ds.Generation != 0 || !strings.Contains(ds.CheckpointError, filepath.Base(blocker)) {
		t.Fatalf("failed checkpoint not surfaced: %+v", ds)
	}
	if !r.Holds("<s1>", inferray.Type, "<d>") {
		t.Fatal("the write behind a failed checkpoint was not applied")
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	write(2)
	if ds, _ := r.DurabilityStats(); ds.Generation != 1 || ds.CheckpointError != "" {
		t.Fatalf("next threshold checkpoint did not clear the failure: %+v", ds)
	}
	write(3)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openDurable(t, dir)
	defer r2.Close()
	sameClosure(t, r2, r)
}

// The write-ahead-log refusal contract Materialize and Insert document:
// a batch the log refuses moves neither the closure nor the generation;
// Insert drops it with the error, Materialize keeps it staged. A closed
// log refuses every append.
func TestWALRefusalLeavesClosure(t *testing.T) {
	r := openDurable(t, t.TempDir())
	mustAdd(t, r, "<a>", inferray.SubClassOf, "<b>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	size, gen := r.Size(), r.Generation()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	unmoved := func(call string) {
		t.Helper()
		if r.Size() != size || r.Generation() != gen || r.Holds("<x>", inferray.Type, "<b>") {
			t.Fatalf("%s: refused batch moved the closure: size %d→%d, generation %d→%d",
				call, size, r.Size(), gen, r.Generation())
		}
	}
	batch := []inferray.Triple{{S: "<x>", P: inferray.Type, O: "<a>"}}

	if _, err := r.Insert(batch); err == nil {
		t.Fatal("Insert on a closed log succeeded")
	}
	if n := r.Pending(); n != 0 {
		t.Fatalf("Insert staged its refused batch: %d pending", n)
	}
	unmoved("Insert")

	if err := r.AddTriples(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Materialize(); err == nil {
		t.Fatal("Materialize on a closed log succeeded")
	}
	if n := r.Pending(); n != len(batch) {
		t.Fatalf("Materialize dropped its refused batch: %d pending, want %d", n, len(batch))
	}
	unmoved("Materialize")
}

// A corrupted WAL tail record fails its CRC on recovery and is
// truncated: the survivors are replayed, the garbage never applied.
func TestDurableCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	r := openDurable(t, dir)
	mustAdd(t, r, "<a>", inferray.SubClassOf, "<b>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, "<evil>", inferray.Type, "<b>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("wal files: %v, %v", logs, err)
	}
	data, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x20
	if err := os.WriteFile(logs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := openDurable(t, dir)
	defer r2.Close()
	ds, _ := r2.DurabilityStats()
	if !ds.TruncatedTail || ds.ReplayedRecords != 1 {
		t.Fatalf("corrupt-tail recovery stats: %+v", ds)
	}
	if r2.Holds("<evil>", inferray.Type, "<b>") {
		t.Fatal("corrupted record was replayed")
	}
	if !r2.Holds("<a>", inferray.SubClassOf, "<b>") {
		t.Fatal("surviving record lost")
	}
}

// In-memory reasoners reject Checkpoint and report no durability.
func TestNotDurable(t *testing.T) {
	r := inferray.New()
	if _, err := r.Checkpoint(); err != inferray.ErrNotDurable {
		t.Fatalf("Checkpoint on in-memory reasoner: %v", err)
	}
	if _, ok := r.DurabilityStats(); ok || r.Durable() {
		t.Fatal("in-memory reasoner claims durability")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with WithDurability did not panic")
		}
	}()
	inferray.New(inferray.WithDurability(t.TempDir(), inferray.DurabilityOptions{}))
}

// Satellite: snapshot round-trip over a dictionary with tombstoned
// slots from PromoteToProperty — write, read, materialize a delta that
// itself promotes another term, and compare the closure against a
// never-snapshotted reasoner fed the identical sequence.
func TestSnapshotTombstoneDeltaEquivalence(t *testing.T) {
	load := func(r *inferray.Reasoner, phase int) {
		t.Helper()
		switch phase {
		case 0: // <p> and <q> first seen as plain resources
			mustAdd(t, r, "<x>", "<rel>", "<p>")
			mustAdd(t, r, "<y>", "<rel>", "<q>")
		case 1: // schema triple promotes <p>: its resource slot tombstones
			mustAdd(t, r, "<p>", inferray.Domain, "<C>")
			mustAdd(t, r, "<u>", "<p>", "<v>")
		case 2: // delta after restore: promotes <q> against the restored dict
			mustAdd(t, r, "<q>", inferray.SubPropertyOf, "<p>")
			mustAdd(t, r, "<w>", "<q>", "<z>")
		}
		if _, err := r.Materialize(); err != nil {
			t.Fatal(err)
		}
	}

	snapshotted := inferray.New()
	load(snapshotted, 0)
	load(snapshotted, 1)

	var buf bytes.Buffer
	if err := snapshotted.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := inferray.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	load(restored, 2)

	straight := inferray.New()
	load(straight, 0)
	load(straight, 1)
	load(straight, 2)

	sameClosure(t, restored, straight)
	// The delta's promotion must also answer through the restored dict.
	if !restored.Holds("<w>", "<p>", "<z>") {
		t.Fatal("restored reasoner missed subPropertyOf inference over promoted terms")
	}
}

// ------------------------------------------------------------ benchmarks
//
// The EXPERIMENTS.md §durability timings come from these three:
// snapshot write, WAL replay, and full cold recovery (image + tail).

// benchDataset materializes a LUBM-like load into a durable reasoner
// rooted at dir, split into nBatches WAL records.
func benchDataset(b *testing.B, dir string, triples int, nBatches int) *inferray.Reasoner {
	b.Helper()
	r, err := inferray.Open(inferray.WithDurability(dir, inferray.DurabilityOptions{
		Sync:              "none", // measure the engine, not the disk cache
		CheckpointRecords: -1,
		CheckpointBytes:   -1,
	}))
	if err != nil {
		b.Fatal(err)
	}
	data := datagen.LUBM(triples, 7)
	per := (len(data) + nBatches - 1) / nBatches
	for i := 0; i < len(data); i += per {
		end := i + per
		if end > len(data) {
			end = len(data)
		}
		r.AddTriples(data[i:end])
		if _, err := r.Materialize(); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkSnapshotWrite measures Checkpoint: image write (under the
// read lock) + WAL rotation, on a ~100k-triple closure.
func BenchmarkSnapshotWrite(b *testing.B) {
	dir := b.TempDir()
	r := benchDataset(b, dir, 100_000, 4)
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := r.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(info.SnapshotBytes)
	}
	b.ReportMetric(float64(r.Size()), "triples")
}

// BenchmarkWALReplay measures recovery when everything is in the log:
// no snapshot, replay b.N× the full WAL through the incremental path.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	r := benchDataset(b, dir, 100_000, 8)
	size := r.Size()
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r2, err := inferray.Open(inferray.WithDurability(dir, inferray.DurabilityOptions{Sync: "none"}))
		if err != nil {
			b.Fatal(err)
		}
		if r2.Size() != size {
			b.Fatalf("replayed %d triples, want %d", r2.Size(), size)
		}
		r2.Close()
	}
	b.ReportMetric(float64(size), "triples")
}

// BenchmarkColdRecovery measures the common restart: a checkpoint image
// plus a short WAL tail.
func BenchmarkColdRecovery(b *testing.B) {
	dir := b.TempDir()
	r := benchDataset(b, dir, 100_000, 4)
	if _, err := r.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	// A small tail on top of the image.
	r.AddTriples(datagen.LUBM(5_000, 11))
	if _, err := r.Materialize(); err != nil {
		b.Fatal(err)
	}
	size := r.Size()
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r2, err := inferray.Open(inferray.WithDurability(dir, inferray.DurabilityOptions{Sync: "none"}))
		if err != nil {
			b.Fatal(err)
		}
		if r2.Size() != size {
			b.Fatalf("recovered %d triples, want %d", r2.Size(), size)
		}
		r2.Close()
	}
	b.ReportMetric(float64(size), "triples")
}

// An image is a closure only under its own ruleset: loading it under a
// different fragment must be refused, both for image files and for
// durable data dirs.
func TestImageFragmentMismatch(t *testing.T) {
	img := filepath.Join(t.TempDir(), "c.img")
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	mustAdd(t, r, "<a>", inferray.SameAs, "<b>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveImage(img); err != nil {
		t.Fatal(err)
	}

	if _, err := inferray.LoadImage(img); err == nil || !strings.Contains(err.Error(), "fragment") {
		t.Fatalf("cross-fragment image load: %v", err)
	}
	r2, err := inferray.LoadImage(img, inferray.WithFragment(inferray.RDFSPlus))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Size() != r.Size() || !r2.Holds("<b>", inferray.SameAs, "<a>") {
		t.Fatal("matching-fragment image load lost the closure")
	}
}

// TestEveryRestoreDoorVerifies: SaveSnapshot and SaveImage emit the one
// image, and the three ways in that take one — LoadSnapshot, LoadImage,
// RestoreImage — are one reader in front of one install. Each resumes
// the saved store generation, and each refuses a stream saved under
// another fragment (naming both), a flipped bit (inside a term string,
// where only the checksum sees it), a cut stream, and bytes after the
// trailer. The retired layouts are the reader's own test
// (internal/snapshot, TestReadRefusesOtherStreamVersions).
func TestEveryRestoreDoorVerifies(t *testing.T) {
	plus := inferray.WithFragment(inferray.RDFSPlus)
	r := inferray.New(plus)
	mustAdd(t, r, "<http://example.org/alice>", inferray.SameAs, "<b>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, "<b>", "<p>", "<c>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	if r.Generation() < 2 {
		t.Fatalf("setup: generation %d", r.Generation())
	}
	var stream bytes.Buffer
	if err := r.SaveSnapshot(&stream); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.img")
	if err := r.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(file) != stream.Len() {
		t.Fatalf("SaveImage wrote %d bytes, SaveSnapshot %d: not one format", len(file), stream.Len())
	}

	doors := map[string]func(img []byte, opts ...inferray.Option) (*inferray.Reasoner, error){
		"LoadSnapshot": func(img []byte, opts ...inferray.Option) (*inferray.Reasoner, error) {
			return inferray.LoadSnapshot(bytes.NewReader(img), opts...)
		},
		"LoadImage": func(img []byte, opts ...inferray.Option) (*inferray.Reasoner, error) {
			p := filepath.Join(t.TempDir(), "x.img")
			if err := os.WriteFile(p, img, 0o644); err != nil {
				t.Fatal(err)
			}
			return inferray.LoadImage(p, opts...)
		},
		"RestoreImage": func(img []byte, opts ...inferray.Option) (*inferray.Reasoner, error) {
			into := inferray.New(opts...)
			_, err := into.RestoreImage(bytes.NewReader(img))
			return into, err
		},
	}
	img := stream.Bytes()
	inTerm := bytes.Index(img, []byte("example.org/alice"))
	if inTerm < 0 {
		t.Fatal("setup: term not found in the image")
	}
	flipped := append([]byte(nil), img...)
	flipped[inTerm] ^= 0x01
	for name, load := range doors {
		for form, whole := range map[string][]byte{"stream": img, "file": file} {
			got, err := load(whole, plus)
			if err != nil {
				t.Fatalf("%s of the %s form: %v", name, form, err)
			}
			if got.Generation() != r.Generation() || got.Size() != r.Size() || !got.Holds("<http://example.org/alice>", "<p>", "<c>") {
				t.Errorf("%s of the %s form: generation %d size %d, saved at %d / %d",
					name, form, got.Generation(), got.Size(), r.Generation(), r.Size())
			}
		}
		_, err := load(img) // the default fragment
		if err == nil || !strings.Contains(err.Error(), "rdfs-plus") || !strings.Contains(err.Error(), "rdfs-default") {
			t.Errorf("%s under another fragment: %v", name, err)
		}
		for what, bad := range map[string][]byte{
			"flipped bit":    flipped,
			"cut stream":     img[:len(img)-7],
			"trailing bytes": append(img[:len(img):len(img)], 0, 0),
		} {
			got, err := load(bad, plus)
			if err == nil {
				t.Errorf("%s accepted an image with %s", name, what)
			} else if got != nil && (got.Generation() != 0 || got.Size() != 0) {
				t.Errorf("%s refused an image with %s and replaced its state all the same", name, what)
			}
		}
	}
}

func TestDurableFragmentMismatch(t *testing.T) {
	dir := t.TempDir()
	r, err := inferray.Open(
		inferray.WithFragment(inferray.RDFSPlus),
		inferray.WithDurability(dir, durOpts),
	)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, "<a>", inferray.SubClassOf, "<b>")
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := inferray.Open(inferray.WithDurability(dir, durOpts)); err == nil ||
		!strings.Contains(err.Error(), "fragment") {
		t.Fatalf("cross-fragment durable recovery: %v", err)
	}
	r2, err := inferray.Open(
		inferray.WithFragment(inferray.RDFSPlus),
		inferray.WithDurability(dir, durOpts),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if !r2.Holds("<a>", inferray.SubClassOf, "<b>") {
		t.Fatal("matching-fragment recovery lost the closure")
	}
}

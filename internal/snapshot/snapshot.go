// Package snapshot serializes a materialized store — dictionary and
// property tables — to a compact binary image and restores it. The
// paper's motivation for forward chaining is exactly this workflow:
// "off-line or pre-runtime execution of inference and
// consumer-independent data access" (§1) — materialize once, persist,
// then serve the closure without the inference engine.
//
// Format (little-endian), stream version 5:
//
//	magic "IFRY" | version u32 | flags u32
//	numProps u32 | numResources u32
//	property terms: numProps × (len u32, bytes)
//	resource terms: numResources × (len u32, bytes)
//	numTables u32
//	tables: numTables × (propIndex u32, version u64, numPairs u32,
//	        pairs as delta-encoded uvarint stream,
//	        marks: ⌈numPairs/64⌉ × u64)
//
// Pair streams are delta-encoded: subjects ascend in a sorted table, so
// consecutive differences are tiny and uvarint encoding shrinks the
// image well below the raw 16 bytes/triple. The mark words are the
// table's asserted marks (store.Table.Marked): bit i says pair i was
// explicitly loaded — the subset of the closure SPARQL UPDATE may
// retract — so the image holds each pair once. The per-table version
// counter carries the store's mutation counters through a round trip,
// so WAL/image pairing can rely on them. flagEncoded marks a *reduced*
// closure: the store was materialized under the hierarchy interval
// encoding, so the transitive subsumption closure and the
// subsumption-derived rdf:type triples are absent and must be served
// virtually (or expanded) by the restoring engine. The hierarchy index
// itself is never serialized — its construction is deterministic in the
// stored edges, so restore rebuilds it.
//
// Marks are positional, so Read repairs nothing: a pair stream that is
// not strictly ⟨s,o⟩-ascending, or mark words with a bit past the last
// pair, are refused with an error naming the table.
//
// WriteFile/ReadFile wrap the stream in a durable on-disk image: a meta
// header (generation, creation time, triple count) for pairing the
// image with a write-ahead log, a CRC-32C of the whole file so a torn
// or bit-rotted image is detected instead of loaded, and
// write-to-temp + fsync + rename so the image appears atomically.
//
// There is one format: stream version 5 inside image-file version 2.
// Read and ReadFile refuse anything else with an error naming the
// source, the version found and the version supported.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"inferray/internal/dictionary"
	"inferray/internal/store"
)

const (
	magic   = "IFRY"
	version = 5

	fileMagic   = "IFRI"
	fileVersion = 2

	// flagEncoded (stream flags bit 0) marks a reduced closure written
	// under the hierarchy interval encoding.
	flagEncoded = 1 << 0
)

// castagnoli is the CRC-32C table shared with internal/wal.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Write serializes the dictionary and store to w. Tables must be
// normalized (sorted, duplicate-free). encoded marks the store as a
// reduced closure (hierarchy interval encoding active at write time);
// Read hands the flag back so the restoring engine can rebuild the
// index or expand the virtual triples. Write only reads the store, so
// it may run beside other readers. A bufio.Writer keeps its first error
// and refuses everything after it, so the one check is the final Flush.
func Write(w io.Writer, d *dictionary.Dictionary, st *store.Store, encoded bool) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(magic)
	writeU32(bw, version)
	var flags uint32
	if encoded {
		flags |= flagEncoded
	}
	writeU32(bw, flags)
	writeU32(bw, uint32(d.NumProperties()))
	writeU32(bw, uint32(d.NumResources()))

	d.Properties(func(id uint64, term string) bool {
		writeString(bw, term)
		return true
	})
	lo, hi := d.ResourceIDRange()
	for id := lo; id < hi; id++ {
		// A slot inside the range that no longer decodes was tombstoned
		// by a resource→property promotion; terms are never empty, so an
		// empty string encodes the tombstone positionally.
		term, _ := d.Decode(id)
		writeString(bw, term)
	}

	nTables := 0
	st.ForEachTable(func(int, *store.Table) bool { nTables++; return true })
	writeU32(bw, uint32(nTables))
	st.ForEachTable(func(pidx int, t *store.Table) bool {
		writeU32(bw, uint32(pidx))
		writeU64(bw, t.Version())
		pairs := t.Pairs()
		writeU32(bw, uint32(len(pairs)/2))
		writePairs(bw, pairs)
		marks := t.Marks()
		for i := 0; i < (len(pairs)/2+63)/64; i++ {
			if marks == nil {
				writeU64(bw, 0)
			} else {
				writeU64(bw, marks[i])
			}
		}
		return true
	})
	return bw.Flush()
}

// Read restores a snapshot: every table normalized, with its asserted
// marks. encoded reports the stream's flagEncoded bit: the store is a
// reduced closure whose virtual triples the hierarchy index must supply.
func Read(r io.Reader) (*dictionary.Dictionary, *store.Store, bool, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	le := binary.LittleEndian
	var head [20]byte // magic, version, flags, numProps, numResources
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, nil, false, fmt.Errorf("snapshot: reading header: %w", err)
	}
	if string(head[:4]) != magic {
		return nil, nil, false, fmt.Errorf("snapshot: bad magic %q", head[:4])
	}
	if v := le.Uint32(head[4:]); v != version {
		return nil, nil, false, fmt.Errorf("snapshot: stream is version %d; this build supports only version %d", v, version)
	}
	flags, nProps, nRes := le.Uint32(head[8:]), le.Uint32(head[12:]), le.Uint32(head[16:])
	if flags&^flagEncoded != 0 {
		return nil, nil, false, fmt.Errorf("snapshot: unknown flags %#x", flags)
	}

	d := dictionary.New()
	for i := uint32(0); i < nProps; i++ {
		term, err := readString(br)
		if err != nil {
			return nil, nil, false, err
		}
		d.EncodeProperty(term)
	}
	for i := uint32(0); i < nRes; i++ {
		term, err := readString(br)
		if err != nil {
			return nil, nil, false, err
		}
		if term == "" {
			d.ReserveTombstone()
			continue
		}
		d.EncodeResource(term)
	}
	if d.NumProperties() != int(nProps) || d.NumResources() != int(nRes) {
		return nil, nil, false, fmt.Errorf("snapshot: duplicate terms corrupted the dictionary")
	}

	st := store.New(int(nProps))
	nTables, err := readU32(br)
	if err != nil {
		return nil, nil, false, err
	}
	if nTables > nProps {
		return nil, nil, false, fmt.Errorf("snapshot: %d tables for %d properties", nTables, nProps)
	}
	for i := uint32(0); i < nTables; i++ {
		var th [16]byte // propIndex, version, numPairs
		if _, err := io.ReadFull(br, th[:]); err != nil {
			return nil, nil, false, fmt.Errorf("snapshot: reading table header: %w", err)
		}
		pidx, tver, nPairs := le.Uint32(th[:]), le.Uint64(th[4:]), le.Uint32(th[12:])
		if pidx >= nProps {
			return nil, nil, false, fmt.Errorf("snapshot: table index %d out of range", pidx)
		}
		pairs, err := readPairs(br, int(nPairs))
		if err != nil {
			return nil, nil, false, fmt.Errorf("snapshot: table %d: %w", pidx, err)
		}
		// Every stored ID must decode, or later enumeration of the
		// restored store would panic in MustDecode on a crafted or
		// corrupted image.
		for _, id := range pairs {
			if _, ok := d.Decode(id); !ok {
				return nil, nil, false, fmt.Errorf("snapshot: table %d references unknown id %d", pidx, id)
			}
		}
		marks, err := readMarks(br, int(nPairs))
		if err != nil {
			return nil, nil, false, fmt.Errorf("snapshot: table %d: %w", pidx, err)
		}
		st.Ensure(int(pidx)).Restore(pairs, marks, tver)
	}
	return d, st, flags&flagEncoded != 0, nil
}

// Meta is the image-file header that pairs a snapshot with the
// write-ahead log covering the changes made after it was taken.
type Meta struct {
	// Generation is the checkpoint generation: the image holds every
	// triple logged in wal files of earlier generations, so recovery
	// loads the image and replays only wal-<Generation>.log.
	Generation uint64
	// CreatedUnix is the wall-clock write time (Unix seconds).
	CreatedUnix int64
	// Triples is the store size at write time, for sanity checks and
	// operator-facing stats without parsing the body.
	Triples uint64
	// Fragment names the rule fragment the closure was materialized
	// under. Loaders refuse (or at least can refuse) to install an
	// image as a ready-made closure under a different ruleset —
	// extending an rdfs-plus closure with rdfs-default rules would
	// yield a store that is the closure of neither.
	Fragment string
	// HierarchyEncoded reports that the image body is a reduced closure
	// (see the package comment on flagEncoded). It lives in the inner
	// stream's flags word, not the file header — the field is filled by
	// ReadFile and consumed by WriteFile, and the IFRI byte layout is
	// unchanged.
	HierarchyEncoded bool
	// StoreGeneration is the reasoner's logical store generation at
	// checkpoint time — the monotone write counter behind the
	// X-Inferray-Generation header. Persisting it lets recovery and
	// follower bootstrap resume the same generation sequence, so the
	// header stays a cluster-wide read-your-writes coordinate instead of
	// a per-process one.
	StoreGeneration uint64
}

// metaSize is the byte length of the file header up to the triple
// count — magic, file version, generation, creation time, triples. The
// 8-byte StoreGeneration follows it, then the variable-length fragment
// name.
const metaSize = 4 + 4 + 8 + 8 + 8

// maxFragmentLen bounds the fragment-name field on read.
const maxFragmentLen = 256

// WriteFile atomically writes a durable snapshot image: meta header,
// the Write stream, and a trailing CRC-32C over everything before it.
// The image is written to a temp file in the target directory, fsynced,
// renamed into place, and the directory fsynced, so path either holds
// the complete new image or whatever was there before — never a torn
// mix.
func WriteFile(path string, d *dictionary.Dictionary, st *store.Store, meta Meta) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	h := crc32.New(castagnoli)
	w := io.MultiWriter(tmp, h)
	var head [metaSize + 8]byte
	copy(head[:4], fileMagic)
	binary.LittleEndian.PutUint32(head[4:], fileVersion)
	binary.LittleEndian.PutUint64(head[8:], meta.Generation)
	binary.LittleEndian.PutUint64(head[16:], uint64(meta.CreatedUnix))
	binary.LittleEndian.PutUint64(head[24:], meta.Triples)
	binary.LittleEndian.PutUint64(head[32:], meta.StoreGeneration)
	if _, err = w.Write(head[:]); err != nil {
		return err
	}
	if len(meta.Fragment) > maxFragmentLen {
		return fmt.Errorf("snapshot: fragment name %q too long", meta.Fragment)
	}
	var fragLen [4]byte
	binary.LittleEndian.PutUint32(fragLen[:], uint32(len(meta.Fragment)))
	if _, err = w.Write(fragLen[:]); err != nil {
		return err
	}
	if _, err = io.WriteString(w, meta.Fragment); err != nil {
		return err
	}
	if err = Write(w, d, st, meta.HierarchyEncoded); err != nil {
		return err
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], h.Sum32())
	if _, err = tmp.Write(foot[:]); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// ReadFile loads a snapshot image written by WriteFile, verifying the
// whole-file CRC before trusting any of it. Any torn, truncated, or
// corrupted image returns an error; the caller falls back to an older
// generation.
func ReadFile(path string) (*dictionary.Dictionary, *store.Store, Meta, error) {
	var meta Meta
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, meta, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, meta, err
	}
	if fi.Size() < metaSize+8+4 {
		return nil, nil, meta, fmt.Errorf("snapshot: image %s truncated (%d bytes)", path, fi.Size())
	}
	h := crc32.New(castagnoli)
	body := io.TeeReader(io.LimitReader(f, fi.Size()-4), h)

	var head [metaSize + 8]byte
	if _, err := io.ReadFull(body, head[:]); err != nil {
		return nil, nil, meta, err
	}
	if string(head[:4]) != fileMagic {
		return nil, nil, meta, fmt.Errorf("snapshot: bad image magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != fileVersion {
		return nil, nil, meta, fmt.Errorf("snapshot: image %s is file version %d; this build supports only version %d", path, v, fileVersion)
	}
	meta.Generation = binary.LittleEndian.Uint64(head[8:])
	meta.CreatedUnix = int64(binary.LittleEndian.Uint64(head[16:]))
	meta.Triples = binary.LittleEndian.Uint64(head[24:])
	meta.StoreGeneration = binary.LittleEndian.Uint64(head[32:])
	var fragLen [4]byte
	if _, err := io.ReadFull(body, fragLen[:]); err != nil {
		return nil, nil, meta, err
	}
	n := binary.LittleEndian.Uint32(fragLen[:])
	if n > maxFragmentLen {
		return nil, nil, meta, fmt.Errorf("snapshot: implausible fragment-name length %d", n)
	}
	frag := make([]byte, n)
	if _, err := io.ReadFull(body, frag); err != nil {
		return nil, nil, meta, err
	}
	meta.Fragment = string(frag)

	d, st, encoded, err := Read(body)
	if err != nil {
		return nil, nil, meta, fmt.Errorf("image %s: %w", path, err)
	}
	meta.HierarchyEncoded = encoded
	// Drain whatever the stream parser's buffering left unread so the
	// hash covers the full body, then check the footer.
	if _, err := io.Copy(io.Discard, body); err != nil {
		return nil, nil, meta, err
	}
	var foot [4]byte
	if _, err := io.ReadFull(f, foot[:]); err != nil {
		return nil, nil, meta, err
	}
	if got := binary.LittleEndian.Uint32(foot[:]); got != h.Sum32() {
		return nil, nil, meta, fmt.Errorf("snapshot: image %s CRC mismatch", path)
	}
	if n := uint64(st.Size()); n != meta.Triples {
		return nil, nil, meta, fmt.Errorf("snapshot: image %s holds %d triples, header says %d", path, n, meta.Triples)
	}
	return d, st, meta, nil
}

// SyncDir fsyncs a directory so a rename or unlink inside it is
// durable. Filesystems that do not support directory fsync (network
// and FUSE mounts typically return EINVAL or ENOTSUP) are tolerated —
// there is nothing more the writer can do there, and failing the
// checkpoint would make durability unusable on those mounts.
func SyncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	err = df.Sync()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, syscall.EINVAL), errors.Is(err, syscall.ENOTSUP),
		errors.Is(err, errors.ErrUnsupported), os.IsPermission(err):
		return nil
	}
	return err
}

// writePairs delta-encodes a sorted pair list: subjects as differences
// from the previous subject, objects as differences from the previous
// object under the same subject (reset on subject change).
func writePairs(w *bufio.Writer, pairs []uint64) {
	var buf [binary.MaxVarintLen64]byte
	var prevS, prevO uint64
	for i := 0; i < len(pairs); i += 2 {
		s, o := pairs[i], pairs[i+1]
		ds := s - prevS
		if ds != 0 {
			prevO = 0
		}
		do := o - prevO // may wrap; uvarint round-trips uint64 exactly
		w.Write(buf[:binary.PutUvarint(buf[:], ds)])
		w.Write(buf[:binary.PutUvarint(buf[:], do)])
		prevS, prevO = s, o
	}
}

// readPairs decodes nPairs pairs and checks them strictly ⟨s,o⟩-ascending:
// a repeated or out-of-order pair is a corrupt or crafted stream, and
// re-sorting it would mis-assign the positional marks.
func readPairs(r *bufio.Reader, nPairs int) ([]uint64, error) {
	// Cap the up-front allocation: a corrupt header can claim 2³² pairs,
	// and trusting it would allocate gigabytes before the stream runs
	// dry. Growth beyond the cap is paid only by actual data.
	capPairs := nPairs
	if capPairs > 1<<20 {
		capPairs = 1 << 20
	}
	pairs := make([]uint64, 0, 2*capPairs)
	var prevS, prevO uint64
	for i := 0; i < nPairs; i++ {
		ds, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("pair stream: %w", err)
		}
		do, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("pair stream: %w", err)
		}
		if ds != 0 {
			prevO = 0
		}
		s := prevS + ds
		o := prevO + do
		if i > 0 && (s < prevS || (s == prevS && o <= prevO)) {
			return nil, fmt.Errorf("pair %d is not above pair %d in ⟨s,o⟩ order", i, i-1)
		}
		pairs = append(pairs, s, o)
		prevS, prevO = s, o
	}
	return pairs, nil
}

// readMarks reads the ⌈nPairs/64⌉ mark words of a table, refusing a bit
// set past the last pair. No bit set at all reads as nil.
func readMarks(r *bufio.Reader, nPairs int) ([]uint64, error) {
	marks, set := make([]uint64, (nPairs+63)/64), uint64(0)
	for i := range marks {
		w, err := readU64(r)
		if err != nil {
			return nil, fmt.Errorf("mark words: %w", err)
		}
		marks[i], set = w, set|w
	}
	if nPairs&63 != 0 && marks[len(marks)-1]>>(uint(nPairs)&63) != 0 {
		return nil, fmt.Errorf("mark set past the last of %d pairs", nPairs)
	}
	if set == 0 {
		return nil, nil
	}
	return marks, nil
}

func writeU32(w *bufio.Writer, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.Write(buf[:])
}

func writeU64(w *bufio.Writer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.Write(buf[:])
}

func readU64(r *bufio.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func readU32(r *bufio.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func writeString(w *bufio.Writer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("snapshot: implausible term length %d", n)
	}
	// Allocate up front only for plausible term sizes; a corrupt length
	// below the hard cap still must not buy megabytes before the stream
	// proves it has the bytes.
	if n > 1<<16 {
		var b strings.Builder
		if _, err := io.CopyN(&b, r, int64(n)); err != nil {
			return "", err
		}
		return b.String(), nil
	}
	// The common case fits the reader's buffer (1<<16): convert straight
	// out of it, one allocation per term — the dictionary makes its own
	// copy of whatever it registers.
	buf, err := r.Peek(int(n))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	s := string(buf)
	_, err = r.Discard(int(n))
	return s, err
}

// Package snapshot serializes a materialized store — dictionary and
// property tables — to a compact binary image and restores it. The
// paper's motivation for forward chaining is exactly this workflow:
// "off-line or pre-runtime execution of inference and
// consumer-independent data access" (§1) — materialize once, persist,
// then serve the closure without the inference engine.
//
// There is one format, written by Write and read by Read over any
// io.Writer / io.Reader (little-endian), version 7:
//
//	magic "IFRI" | version u32 | flags u32
//	walGeneration u64 | storeGeneration u64 | createdUnix i64 | triples u64
//	fragment (len u32, bytes)
//	numProps u32 | numResources u32 | blobLen u64
//	term lengths: (numProps + numResources) × uvarint, properties first,
//	        0 for a tombstoned resource slot
//	blob: blobLen bytes, every term's bytes in the same order
//	numTables u32
//	tables: numTables × (propIndex u32, version u64, numPairs u32,
//	        pairs as delta-encoded uvarint stream,
//	        marks: ⌈numPairs/64⌉ × u64)
//	crc32c u32 over every byte before it
//
// The header is the Meta that pairs the image with a write-ahead log
// and names the ruleset it is a closure under. The dictionary section is
// the dictionary's own (dictionary.WriteSection / ReadSection): all term
// lengths ahead of all term bytes, so the reader plans the arena first
// and then reads the blob straight into it — whole chunks, no string per
// term — and rebuilds the lookup index in one pass. Pair streams are
// delta-encoded: subjects ascend in a sorted table, so consecutive
// differences are tiny and uvarint encoding shrinks the image well below
// the raw 16 bytes/triple. The mark words are the table's asserted marks
// (store.Table.Marked): bit i says pair i was explicitly loaded — the
// subset of the closure SPARQL UPDATE may retract — so the image holds
// each pair once. The per-table version counter carries the store's
// mutation counters through a round trip, so WAL/image pairing can rely
// on them. flagEncoded marks a *reduced* closure: the store was
// materialized under the hierarchy interval encoding, so the transitive
// subsumption closure and the subsumption-derived rdf:type triples are
// absent and must be served virtually (or expanded) by the restoring
// engine. The hierarchy index itself is never serialized — its
// construction is deterministic in the stored edges, so restore rebuilds
// it.
//
// Read trusts nothing and repairs nothing: any other magic or version is
// refused with the one found and the one supported named; a term
// registered twice, an empty property term, or term lengths that do not
// add up to blobLen are refused, and a blobLen the stream cannot back
// costs at most one arena chunk before the stream runs dry; a pair
// stream that is not strictly ⟨s,o⟩-ascending, or mark words with a bit
// past the last pair, are refused with the table named (marks are
// positional); a flipped bit anywhere, a cut stream, or bytes after the
// checksum are refused by the trailer check.
//
// WriteFile/ReadFile put an image on disk under a path: write-to-temp +
// fsync + rename so it appears atomically, and the path in every error.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"inferray/internal/dictionary"
	"inferray/internal/store"
)

const (
	magic   = "IFRI"
	version = 7

	// flagEncoded (flags bit 0) marks a reduced closure written under
	// the hierarchy interval encoding.
	flagEncoded = 1 << 0

	// maxFragmentLen bounds the fragment name (checked on write and read).
	maxFragmentLen = 256
)

// castagnoli is the CRC-32C table shared with internal/wal.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcResidue is the CRC-32C of any byte string followed by its own
// CRC-32C (little-endian) — a constant, here taken from the empty
// string, whose checksum is 0. Read hashes body and trailer together in
// whatever chunks its buffered reader pulls and compares the sum with
// this, so it needs neither the stream's length nor a per-byte hash.
var crcResidue = crc32.Checksum(make([]byte, 4), castagnoli)

// Meta is the image header: what pairs a snapshot with the write-ahead
// log covering the changes made after it was taken, and what the
// restoring reasoner must know before it installs the tables.
type Meta struct {
	// Generation is the checkpoint generation: the image holds every
	// triple logged in wal files of earlier generations, so recovery
	// loads the image and replays only wal-<Generation>.log. Zero for an
	// image saved outside a data directory.
	Generation uint64
	// StoreGeneration is the reasoner's logical store generation at
	// write time — the monotone write counter behind the
	// X-Inferray-Generation header. Persisting it lets recovery and
	// follower bootstrap resume the same generation sequence, so the
	// header stays a cluster-wide read-your-writes coordinate instead of
	// a per-process one.
	StoreGeneration uint64
	// CreatedUnix is the wall-clock write time (Unix seconds).
	CreatedUnix int64
	// Triples is the stored-triple count, for operator-facing stats
	// without parsing the tables. Write takes it from the store and Read
	// checks the restored store against it.
	Triples uint64
	// Fragment names the rule fragment the closure was materialized
	// under. Loaders refuse to install an image as a ready-made closure
	// under a different ruleset — extending an rdfs-plus closure with
	// rdfs-default rules would yield a store that is the closure of
	// neither.
	Fragment string
	// HierarchyEncoded reports that the tables are a reduced closure
	// (flagEncoded).
	HierarchyEncoded bool
}

// Write serializes the dictionary and store to w as one image. Tables
// must be normalized (sorted, duplicate-free). Write only reads the
// store, so it may run beside other readers. A bufio.Writer keeps its
// first error and refuses everything after it, so the one check before
// the trailer is the final Flush.
func Write(w io.Writer, d *dictionary.Dictionary, st *store.Store, meta Meta) error {
	if len(meta.Fragment) > maxFragmentLen {
		return fmt.Errorf("snapshot: fragment name %q too long", meta.Fragment)
	}
	h := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, h), 1<<16)
	bw.WriteString(magic)
	writeU32(bw, version)
	var flags uint32
	if meta.HierarchyEncoded {
		flags |= flagEncoded
	}
	writeU32(bw, flags)
	writeU64(bw, meta.Generation)
	writeU64(bw, meta.StoreGeneration)
	writeU64(bw, uint64(meta.CreatedUnix))
	writeU64(bw, uint64(st.Size()))
	writeString(bw, meta.Fragment)
	d.WriteSection(bw)

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
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, h.Sum32()))
	return err
}

// Read restores an image: header, every table normalized with its
// asserted marks, and the checksum verified over the whole stream, which
// must end at the trailer. Nothing is returned from an image that fails
// any of it.
func Read(r io.Reader) (*dictionary.Dictionary, *store.Store, Meta, error) {
	h := crc32.New(castagnoli)
	br := bufio.NewReaderSize(io.TeeReader(r, h), 1<<16)
	d, st, meta, err := readBody(br)
	if err == nil {
		err = readTrailer(br, h)
	}
	if err == nil && uint64(st.Size()) != meta.Triples {
		err = fmt.Errorf("snapshot: image holds %d triples, header says %d", st.Size(), meta.Triples)
	}
	if err != nil {
		return nil, nil, Meta{}, err
	}
	return d, st, meta, nil
}

// readTrailer reads the checksum, requires the stream to end there, and
// checks what h saw of it — body and trailer — against crcResidue.
func readTrailer(br *bufio.Reader, h hash.Hash32) error {
	if _, err := readU32(br); err != nil {
		return fmt.Errorf("snapshot: reading checksum: %w", err)
	}
	if _, err := br.ReadByte(); err == nil {
		return errors.New("snapshot: bytes after the checksum")
	} else if err != io.EOF {
		return err
	}
	if h.Sum32() != crcResidue {
		return errors.New("snapshot: CRC mismatch")
	}
	return nil
}

// readBody parses everything ahead of the trailer.
func readBody(br *bufio.Reader) (*dictionary.Dictionary, *store.Store, Meta, error) {
	var meta Meta
	le := binary.LittleEndian
	var head [44]byte // magic, version, flags, the four meta words
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, nil, meta, fmt.Errorf("snapshot: reading header: %w", err)
	}
	if v := le.Uint32(head[4:]); string(head[:4]) != magic || v != version {
		return nil, nil, meta, fmt.Errorf("snapshot: image is %q version %d; this build supports only %q version %d",
			head[:4], v, magic, version)
	}
	flags := le.Uint32(head[8:])
	if flags&^flagEncoded != 0 {
		return nil, nil, meta, fmt.Errorf("snapshot: unknown flags %#x", flags)
	}
	meta.HierarchyEncoded = flags&flagEncoded != 0
	meta.Generation = le.Uint64(head[12:])
	meta.StoreGeneration = le.Uint64(head[20:])
	meta.CreatedUnix = int64(le.Uint64(head[28:]))
	meta.Triples = le.Uint64(head[36:])
	fragment, err := readString(br, maxFragmentLen)
	if err != nil {
		return nil, nil, meta, fmt.Errorf("snapshot: fragment name: %w", err)
	}
	meta.Fragment = fragment

	d, err := dictionary.ReadSection(br)
	if err != nil {
		return nil, nil, meta, fmt.Errorf("snapshot: %w", err)
	}
	nProps := uint32(d.NumProperties())
	st := store.New(int(nProps))
	nTables, err := readU32(br)
	if err != nil {
		return nil, nil, meta, err
	}
	if nTables > nProps {
		return nil, nil, meta, fmt.Errorf("snapshot: %d tables for %d properties", nTables, nProps)
	}
	for i := uint32(0); i < nTables; i++ {
		var th [16]byte // propIndex, version, numPairs
		if _, err := io.ReadFull(br, th[:]); err != nil {
			return nil, nil, meta, fmt.Errorf("snapshot: reading table header: %w", err)
		}
		pidx, tver, nPairs := le.Uint32(th[:]), le.Uint64(th[4:]), le.Uint32(th[12:])
		if pidx >= nProps {
			return nil, nil, meta, fmt.Errorf("snapshot: table index %d out of range", pidx)
		}
		pairs, err := readPairs(br, int(nPairs))
		if err != nil {
			return nil, nil, meta, fmt.Errorf("snapshot: table %d: %w", pidx, err)
		}
		// Every stored ID must decode, or later enumeration of the
		// restored store would panic in MustDecode on a crafted image
		// (a checksum is no defence against one).
		for _, id := range pairs {
			if _, ok := d.Decode(id); !ok {
				return nil, nil, meta, fmt.Errorf("snapshot: table %d references unknown id %d", pidx, id)
			}
		}
		marks, err := readMarks(br, int(nPairs))
		if err != nil {
			return nil, nil, meta, fmt.Errorf("snapshot: table %d: %w", pidx, err)
		}
		st.Ensure(int(pidx)).Restore(pairs, marks, tver)
	}
	return d, st, meta, nil
}

// WriteFile writes an image to path atomically: to a temp file in the
// target directory, fsynced, renamed into place, and the directory
// fsynced, so path either holds the complete new image or whatever was
// there before — never a torn mix.
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
	if err = Write(tmp, d, st, meta); err != nil {
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

// ReadFile reads the image at path, naming the path in any refusal. A
// torn, truncated, or corrupted image returns an error; the caller
// falls back to an older generation.
func ReadFile(path string) (*dictionary.Dictionary, *store.Store, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, Meta{}, err
	}
	defer f.Close()
	d, st, meta, err := Read(f)
	if err != nil {
		return nil, nil, Meta{}, fmt.Errorf("image %s: %w", path, err)
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

// readString reads a length-prefixed string of at most limit bytes,
// which must fit the reader's buffer.
func readString(r *bufio.Reader, limit uint32) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > limit {
		return "", fmt.Errorf("snapshot: implausible string length %d", n)
	}
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

package dictionary

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// The image section (internal/snapshot embeds it, little-endian):
//
//	numProps u32 | numResources u32 | blobLen u64
//	lengths:  (numProps + numResources) × uvarint, properties first;
//	          0 marks a tombstoned resource slot
//	blob:     blobLen bytes, the terms concatenated in the same order
//
// The lengths come first so the reader can plan the arena before the
// first term byte arrives; the blob then streams straight into it.

// WriteSection writes the dictionary's image section to w. Errors stay
// in w, which keeps the first one; the caller checks at its Flush.
func (d *Dictionary) WriteSection(w *bufio.Writer) {
	var buf [16]byte
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(len(d.props)))
	le.PutUint32(buf[4:], uint32(len(d.res)))
	le.PutUint64(buf[8:], uint64(d.termBytes))
	w.Write(buf[:])
	for _, side := range [][]ref{d.props, d.res} {
		for _, r := range side {
			n := 0
			if r != 0 {
				n = len(d.str(r))
			}
			w.Write(buf[:binary.PutUvarint(buf[:], uint64(n))])
		}
	}
	for _, side := range [][]ref{d.props, d.res} {
		for _, r := range side {
			if r != 0 {
				w.WriteString(d.str(r))
			}
		}
	}
}

// ReadSection reads an image section written by WriteSection. Nothing in
// it is trusted: the ref arrays grow with the lengths actually read,
// never from the counts; each arena chunk is allocated only after the
// previous one's bytes have arrived, so a blobLen the stream cannot back
// costs at most one chunk; and the index is rebuilt in one pass that
// refuses a term registered twice and an empty property term.
func ReadSection(r *bufio.Reader) (*Dictionary, error) {
	var head [16]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("dictionary header: %w", err)
	}
	le := binary.LittleEndian
	nProps, nRes := int(le.Uint32(head[0:])), int(le.Uint32(head[4:]))
	blobLen := le.Uint64(head[8:])
	if nProps >= propSide || nRes >= propSide || blobLen >= 1<<62 {
		return nil, fmt.Errorf("dictionary: implausible header: %d properties, %d resources, %d term bytes", nProps, nRes, blobLen)
	}

	// Plan the arena from the lengths: the terms are packed, in order,
	// into chunks of at most chunkSize bytes, and a term of ownChunk bytes
	// or more takes a chunk of its own; sizes holds the planned chunks'
	// sizes. Each chunk is one run of the blob.
	d := &Dictionary{tail: -1}
	var sizes []int
	open := -1 // the shared chunk being planned
	var total uint64
	for i := 0; i < nProps+nRes; i++ {
		n64, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("dictionary term lengths: %w", noEOF(err))
		}
		if n64 > blobLen-total {
			return nil, fmt.Errorf("dictionary term lengths overrun the %d-byte blob", blobLen)
		}
		total += n64
		n := int(n64)
		var rf ref
		switch {
		case n == 0 && i < nProps:
			return nil, fmt.Errorf("dictionary: property term %d is empty", i)
		case n == 0: // a tombstoned resource slot
		case n >= ownChunk:
			sizes, open = append(sizes, n), -1
			rf = makeRef(len(sizes)-1, 0, wholeChunk)
		default:
			if open < 0 || sizes[open]+n > chunkSize {
				sizes, open = append(sizes, 0), len(sizes)
			}
			rf = makeRef(open, sizes[open], n)
			sizes[open] += n
		}
		if i < nProps {
			d.props = append(d.props, rf)
		} else {
			d.res = append(d.res, rf)
		}
	}
	if total != blobLen {
		return nil, fmt.Errorf("dictionary term lengths sum to %d bytes, blob holds %d", total, blobLen)
	}

	for _, size := range sizes {
		c, err := readChunk(r, size)
		if err != nil {
			return nil, fmt.Errorf("dictionary blob: %w", noEOF(err))
		}
		d.addChunk(c)
	}
	d.termBytes = int(blobLen)

	live := len(d.props)
	for _, rf := range d.res {
		if rf != 0 {
			live++
		}
	}
	if dup, found := d.reindex(slotsFor(live)); found {
		if len(dup) > 80 {
			dup = dup[:80] + "…"
		}
		return nil, fmt.Errorf("dictionary: term %q registered twice", dup)
	}
	return d, nil
}

// readChunk reads one planned chunk. A chunk larger than a shared one
// holds one long term; it grows by doubling as its bytes arrive, so it
// is paid for by the stream rather than by the length the section
// claims.
func readChunk(r io.Reader, size int) ([]byte, error) {
	c := make([]byte, 0, min(size, chunkSize))
	for len(c) < size {
		if len(c) == cap(c) {
			c = slices.Grow(c, min(len(c), size-len(c)))
		}
		n, err := io.ReadFull(r, c[len(c):min(cap(c), size)])
		if c = c[:len(c)+n]; err != nil {
			return nil, err
		}
	}
	return c, nil
}

// noEOF reports a stream that ended inside the section as truncated.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

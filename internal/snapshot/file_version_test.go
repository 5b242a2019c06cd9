package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// An image file round-trips its meta header, and a file of any other
// version — the retired version-1 layout (no StoreGeneration field) or a
// future one — is refused with an error naming the file, the version
// found and the version supported, and is left untouched. The fixtures
// are synthesized from the current bytes (version patched, footer CRC
// recomputed) so the test tracks the writer instead of a stale blob.
func TestFileMetaVersions(t *testing.T) {
	dir := t.TempDir()
	d, st := buildFixture()
	path := filepath.Join(dir, "current.img")
	meta := Meta{
		Generation:      3,
		CreatedUnix:     1700000000,
		Triples:         4,
		Fragment:        "rdfs-default",
		StoreGeneration: 42,
	}
	if err := WriteFile(path, d, st, meta); err != nil {
		t.Fatal(err)
	}
	_, _, got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.StoreGeneration != 42 || got.Generation != 3 || got.Fragment != "rdfs-default" {
		t.Fatalf("meta = %+v", got)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Version 1 as it was really laid out: the 8 StoreGeneration bytes
	// absent. A whole, CRC-valid file — refused by its version alone.
	v1 := append([]byte(nil), raw[:metaSize]...)
	v1 = append(v1, raw[metaSize+8:len(raw)-4]...)
	for name, img := range map[string][]byte{
		"v1":     v1,
		"future": append([]byte(nil), raw[:len(raw)-4]...),
	} {
		v := uint32(1)
		if name == "future" {
			v = fileVersion + 1
		}
		binary.LittleEndian.PutUint32(img[4:], v)
		img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, castagnoli))
		p := filepath.Join(dir, name+".img")
		if err := os.WriteFile(p, img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := ReadFile(p)
		if err == nil {
			t.Fatalf("%s: file version %d accepted", name, v)
		}
		for _, want := range []string{p, fmt.Sprintf("version %d", v), fmt.Sprintf("version %d", fileVersion)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: refusal %q does not mention %q", name, err, want)
			}
		}
		if after, _ := os.ReadFile(p); !bytes.Equal(after, img) {
			t.Errorf("%s: refused image was modified", name)
		}
	}

	// A current image file around a retired stream — version 4, the one
	// that carried the asserted triples as a second section — is refused
	// by the same stream reader, with the file named.
	v4 := append([]byte(nil), raw[:len(raw)-4]...)
	at := metaSize + 8 + 4 + len(meta.Fragment) + len(magic)
	if got := binary.LittleEndian.Uint32(v4[at:]); got != version {
		t.Fatalf("fixture: stream version not at offset %d (found %d)", at, got)
	}
	binary.LittleEndian.PutUint32(v4[at:], 4)
	v4 = binary.LittleEndian.AppendUint32(v4, crc32.Checksum(v4, castagnoli))
	p := filepath.Join(dir, "stream-v4.img")
	if err := os.WriteFile(p, v4, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = ReadFile(p)
	if err == nil {
		t.Fatal("image around a version-4 stream accepted")
	}
	for _, want := range []string{p, "version 4", fmt.Sprintf("version %d", version)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("stream-v4: refusal %q does not mention %q", err, want)
		}
	}
}

package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func collect(payloads *[][]byte) func(OpKind, []byte) error {
	return func(_ OpKind, p []byte) error {
		*payloads = append(*payloads, append([]byte(nil), p...))
		return nil
	}
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0.log")
	l, err := Create(path, 7, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("<a> <p> <b> .\n"), []byte("<c> <p> <d> .\n<e> <p> <f> .\n"), bytes.Repeat([]byte{0xAB}, 100_000)}
	for _, p := range want {
		if err := l.Append(OpAdd, p); err != nil {
			t.Fatal(err)
		}
	}
	if l.Records() != len(want) {
		t.Fatalf("records %d, want %d", l.Records(), len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	l2, st, err := Open(path, SyncAlways, 0, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st.Truncated {
		t.Fatal("clean log reported truncated")
	}
	if st.Records != len(want) || l2.Records() != len(want) {
		t.Fatalf("replayed %d records, want %d", st.Records, len(want))
	}
	if l2.Generation() != 7 {
		t.Fatalf("generation %d, want 7", l2.Generation())
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// The reopened log must accept appends after the existing tail.
	if err := l2.Append(OpAdd, []byte("more")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got = nil
	l3, st, err := Open(path, SyncNone, 0, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if st.Records != len(want)+1 || string(got[len(got)-1]) != "more" {
		t.Fatalf("append-after-reopen lost: %d records", st.Records)
	}
}

// Corruption anywhere in the tail record — flipped payload byte, torn
// payload, torn record header — must truncate at the last valid record,
// and a second open must see a clean shorter log.
func TestLogCorruptTailTruncated(t *testing.T) {
	build := func(t *testing.T) (string, [][]byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		l, err := Create(path, 1, SyncAlways, 0)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for i := 0; i < 5; i++ {
			p := []byte(fmt.Sprintf("<s%d> <p> <o%d> .\n", i, i))
			want = append(want, p)
			if err := l.Append(OpAdd, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return path, want
	}

	cases := map[string]func(data []byte) []byte{
		"bitflip-last-payload": func(data []byte) []byte {
			c := append([]byte(nil), data...)
			c[len(c)-2] ^= 0x40
			return c
		},
		"torn-payload": func(data []byte) []byte { return data[:len(data)-3] },
		"torn-header":  func(data []byte) []byte { return data[:len(data)-20] },
		"garbage-appended": func(data []byte) []byte {
			return append(append([]byte(nil), data...), 0xFF, 0xFE, 0xFD)
		},
		"implausible-length": func(data []byte) []byte {
			return append(append([]byte(nil), data...), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 'x')
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			path, want := build(t)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			wantRecords := len(want)
			switch name {
			case "bitflip-last-payload", "torn-payload", "torn-header":
				wantRecords-- // the damaged record itself is dropped
			}
			var got [][]byte
			l, st, err := Open(path, SyncAlways, 0, collect(&got))
			if err != nil {
				t.Fatal(err)
			}
			if !st.Truncated {
				t.Fatal("corruption not reported")
			}
			if st.Records != wantRecords {
				t.Fatalf("replayed %d records, want %d", st.Records, wantRecords)
			}
			for i := 0; i < wantRecords; i++ {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("surviving record %d mismatch", i)
				}
			}
			// Appending over the truncation point and reopening must be clean.
			if err := l.Append(OpAdd, []byte("fresh")); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got = nil
			l2, st2, err := Open(path, SyncAlways, 0, collect(&got))
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if st2.Truncated {
				t.Fatal("second open still sees corruption")
			}
			if st2.Records != wantRecords+1 || string(got[len(got)-1]) != "fresh" {
				t.Fatalf("post-truncation append lost: %d records", st2.Records)
			}
		})
	}
}

func TestLogDamagedHeaderRewritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, st, err := Open(path, SyncAlways, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !st.Truncated || st.Records != 0 {
		t.Fatalf("damaged header: truncated=%v records=%d", st.Truncated, st.Records)
	}
	if err := l.Append(OpAdd, []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, 0, SyncInterval, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(OpAdd, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.mu.Lock()
		dirty := l.dirty
		l.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for name, want := range map[string]SyncPolicy{
		"always": SyncAlways, "interval": SyncInterval, "none": SyncNone, "": SyncInterval,
	} {
		got, err := ParseSyncPolicy(name)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", name, got, err)
		}
		if name != "" && got.String() != name {
			t.Errorf("String() = %q, want %q", got.String(), name)
		}
	}
	if _, err := ParseSyncPolicy("fsync-maybe"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestAppendRejectsOversizeAndEmpty(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "wal.log"), 0, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(OpAdd, nil); err == nil {
		t.Error("empty record accepted")
	}
}

// writeRawLog hand-writes a log file: the given header version, then
// records whose payloads are supplied verbatim (CRCs computed, so they
// are valid records of that version).
func writeRawLog(t *testing.T, path string, version uint32, payloads ...[]byte) {
	t.Helper()
	var buf bytes.Buffer
	head := make([]byte, headerSize)
	copy(head[:4], logMagic)
	binary.LittleEndian.PutUint32(head[4:], version)
	binary.LittleEndian.PutUint64(head[8:], 42)
	buf.Write(head)
	for _, p := range payloads {
		rec := make([]byte, recHeader)
		binary.LittleEndian.PutUint32(rec[:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(p, castagnoli))
		buf.Write(rec)
		buf.Write(p)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// An unknown op-kind byte CRC-verifies (it was written that way) but
// must be handled as corruption: truncate at the record, never guess
// its semantics, and never deliver it to the replay callback.
func TestUnknownOpKindTruncatesNotReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	good := append([]byte{byte(OpAdd)}, "<a> <p> <b> .\n"...)
	future := append([]byte{7}, "<x> <p> <y> .\n"...)
	trailing := append([]byte{byte(OpDelete)}, "<a> <p> <b> .\n"...)
	writeRawLog(t, path, 2, good, future, trailing)

	var kinds []OpKind
	var got [][]byte
	l, st, err := Open(path, SyncAlways, 0, func(k OpKind, p []byte) error {
		kinds = append(kinds, k)
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated {
		t.Fatal("unknown op kind not reported as truncation")
	}
	// Only the record before the unknown kind replays; the valid-looking
	// record after it is unreachable (truncated away with the garbage).
	if st.Records != 1 || len(got) != 1 || kinds[0] != OpAdd || string(got[0]) != "<a> <p> <b> .\n" {
		t.Fatalf("replayed %d records (kinds %v), want exactly the first add", st.Records, kinds)
	}
	if err := l.Append(OpDelete, []byte("<a> <p> <b> .\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	kinds, got = nil, nil
	l2, st2, err := Open(path, SyncAlways, 0, func(k OpKind, p []byte) error {
		kinds = append(kinds, k)
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st2.Truncated || st2.Records != 2 {
		t.Fatalf("second open: truncated=%v records=%d, want clean 2", st2.Truncated, st2.Records)
	}
	if kinds[1] != OpDelete {
		t.Fatalf("appended delete replayed as %v", kinds[1])
	}
}

// A log whose header carries the magic but another format version — the
// retired version 1 (no kind byte) or a newer build's — is some build's
// whole log, not a torn create: Open refuses it with an error naming
// the file and both versions, delivers no record, and leaves every byte
// of the file as it was.
func TestOtherVersionLogRefusedUntouched(t *testing.T) {
	for _, v := range []uint32{1, logVersion + 1} {
		path := filepath.Join(t.TempDir(), "wal.log")
		writeRawLog(t, path, v, []byte("<a> <p> <b> .\n"), []byte("<c> <p> <d> .\n"))
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := Open(path, SyncAlways, 0, func(OpKind, []byte) error {
			t.Errorf("version-%d log delivered a record", v)
			return nil
		})
		if err == nil {
			l.Close()
			t.Fatalf("version-%d log opened", v)
		}
		for _, want := range []string{path, fmt.Sprintf("version-%d", v), fmt.Sprintf("version %d", logVersion)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version-%d refusal %q does not mention %q", v, err, want)
			}
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
			t.Errorf("version-%d log was modified by the refused Open", v)
		}
	}
}

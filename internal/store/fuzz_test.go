package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// These fuzz targets pin the recovery-path contract: whatever bytes are
// on disk, the decoders never panic and never return anything but the
// typed ErrCorrupt / ErrFormatVersion errors — and a WAL tail the
// reader calls torn must truncate to a clean, replayable file. The
// seeds reproduce the shapes the corruption tests already cover
// (bit-flips, truncation, section reordering) plus the hostile metas
// (negative and overflowing row counts) that a CRC cannot catch because
// they are valid, correctly-checksummed payloads.

// fuzzSnapshotSeeds builds the corpus: one valid snapshot and the
// interesting corruptions of it.
func fuzzSnapshotSeeds(f *testing.F) {
	valid, err := encodeSnapshot(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-section
	f.Add(valid[:walHeaderLen]) // header only
	f.Add([]byte("CKPS"))       // magic only
	f.Add([]byte{})             // empty
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40 // CRC-caught bit flip
	f.Add(flipped)
	wrongVer := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(wrongVer[4:], FormatVersion+1)
	f.Add(wrongVer)

	// Hostile metas: well-framed, CRC-valid sections whose JSON claims
	// impossible shapes. A negative row count must not reach make, and
	// a huge one must not overflow the 4*Rows bounds check.
	for _, meta := range []string{
		`{"version":1,"rows":-1,"attrs":["A"],"source":null}`,
		`{"version":1,"rows":4611686018427387904,"attrs":["A"],"source":null}`,
		`{"version":1,"rows":2,"attrs":["A"],"source":null}`,
	} {
		hdr := append([]byte(snapMagic), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(hdr[4:], FormatVersion)
		var cols []byte
		cols = binary.AppendUvarint(cols, 1) // one column
		cols = binary.AppendUvarint(cols, 1) // one dict value
		cols = appendString(cols, "v")
		cols = binary.LittleEndian.AppendUint32(cols, 0) // one code
		buf := appendSection(hdr, secMeta, []byte(meta))
		f.Add(appendSection(bytes.Clone(buf), secColumns, cols))
		// Columns before meta: the columns section is sized against
		// Rows's zero value, and only the final cross-check can reject.
		out := append([]byte(snapMagic), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(out[4:], FormatVersion)
		out = appendSection(out, secColumns, cols)
		f.Add(appendSection(out, secMeta, []byte(meta)))
	}
}

func FuzzSnapshotOpen(f *testing.F) {
	fuzzSnapshotSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sd, err := decodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormatVersion) {
				t.Fatalf("decodeSnapshot returned untyped error %v", err)
			}
			return
		}
		// Anything the decoder accepts must satisfy the encoder's own
		// consistency checks (column arity, row counts, codes within
		// dictionaries): a snapshot that decodes must re-encode.
		if _, err := encodeSnapshot(sd); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
	})
}

// fuzzWALSeeds builds the WAL corpus: a valid two-record log and its
// corruptions.
func fuzzWALSeeds(f *testing.F) {
	valid := walHeader(3)
	valid = append(valid, encodeRecord(recAppend, encodeAppendRecord(&AppendRecord{
		Version: 4,
		Rows:    [][]string{{"13053", "M"}, {"14853", "F"}},
	}))...)
	rel := sampleSnapshot().Releases.Releases[0]
	valid = append(valid, encodeRecord(recRelease, appendReleaseRecord(nil, &rel))...)
	f.Add(valid)
	f.Add(valid[:walHeaderLen])   // header, no records
	f.Add(valid[:len(valid)-3])   // torn tail
	f.Add(valid[:walHeaderLen+2]) // torn first record header
	f.Add([]byte("CKPW"))         // short header
	f.Add([]byte{})               // empty
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-6] ^= 0x01 // CRC-caught flip in last record
	f.Add(flipped)
	unknown := walHeader(3)
	f.Add(append(unknown, encodeRecord(9, []byte("??"))...))
}

func FuzzWALReplay(f *testing.F) {
	fuzzWALSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		base, recs, good, err := readWAL(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormatVersion) {
				t.Fatalf("readWAL returned untyped error %v", err)
			}
			return
		}
		if good < walHeaderLen || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [header, len]=%d", good, len(data))
		}
		// Torn-tail contract: truncating to the good offset yields a
		// clean log that replays to the same state.
		if err := os.WriteFile(path, data[:good], 0o644); err != nil {
			t.Fatal(err)
		}
		base2, recs2, good2, err := readWAL(path)
		if err != nil {
			t.Fatalf("truncated-to-good WAL does not re-read: %v", err)
		}
		if base2 != base || len(recs2) != len(recs) || good2 != good {
			t.Fatalf("truncated replay diverged: base %d→%d, records %d→%d, good %d→%d",
				base, base2, len(recs), len(recs2), good, good2)
		}
	})
}

// fuzzShippedWAL returns the committed bytes of a WAL that a DatasetLog
// wrote, with appends and a release record, and its base version: the
// stream a leader ships to a follower.
func fuzzShippedWAL(f *testing.F) ([]byte, int64) {
	m, err := Open(Options{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	sd := sampleSnapshot()
	dl, err := m.Create("d", sd)
	if err != nil {
		f.Fatal(err)
	}
	defer dl.Close()
	for _, ar := range []*AppendRecord{
		{Version: 4, Rows: [][]string{{"14850", "M"}, {"14851", "F"}}},
		{Version: 5, Rows: [][]string{{"13053", "F"}}},
	} {
		if err := dl.LogAppend(ar); err != nil {
			f.Fatal(err)
		}
	}
	if err := dl.LogRelease(&sd.Releases.Releases[0]); err != nil {
		f.Fatal(err)
	}
	data, _, err := dl.ReadCommitted(0, 0)
	if err != nil {
		f.Fatal(err)
	}
	return data, sd.Version
}

// scanned is what one RecordScanner decoded from a stream.
type scanned struct {
	recs   []Record
	offset int64
	err    error
}

// scanStream feeds stream to a fresh scanner starting at start, in
// chunks of the sizes in chunks and then the rest in one, draining Next
// after every Feed. After every Next it checks the cursor arithmetic:
// Offset() is start plus the bytes consumed, and Buffered() the bytes fed
// minus the bytes consumed. Every error must be typed.
func scanStream(t *testing.T, base, start int64, stream, chunks []byte) scanned {
	s, err := NewRecordScanner(base, start)
	if err != nil {
		t.Fatalf("scanner at %d: %v", start, err)
	}
	var res scanned
	fed := 0
	feed := func(chunk []byte) bool {
		s.Feed(chunk)
		fed += len(chunk)
		for {
			rec, ok, err := s.Next()
			if consumed := s.Offset() - start; consumed < 0 || consumed+int64(s.Buffered()) != int64(fed) {
				t.Fatalf("offset %d (start %d) and %d buffered bytes after %d fed", s.Offset(), start, s.Buffered(), fed)
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormatVersion) {
					t.Fatalf("Next returned untyped error %v", err)
				}
				res.err = err
				return false
			}
			if !ok {
				return true
			}
			res.recs = append(res.recs, rec)
		}
	}
	rest := stream
	for _, size := range chunks {
		n := min(int(size), len(rest))
		if !feed(rest[:n]) {
			res.offset = s.Offset()
			return res
		}
		rest = rest[n:]
	}
	feed(rest)
	res.offset = s.Offset()
	return res
}

// FuzzRecordScanner fuzzes the replication wire's decoder: a stream of
// WAL bytes, the chunk sizes a follower's fetches might cut it into, the
// expected base version, and a start at 0 (header first) or at
// WALHeaderLen (mid-log). One scanner is fed the stream whole, another
// chunk by chunk. Neither may panic or return an untyped error, and both
// must decode the same records, end at the same offset, and either both
// fail or neither.
func FuzzRecordScanner(f *testing.F) {
	valid, base := fuzzShippedWAL(f)
	ones := bytes.Repeat([]byte{1}, len(valid))
	f.Add(valid, []byte(nil), base, false)
	f.Add(valid, ones, base, false)                  // one byte at a time
	f.Add(valid, []byte{7, 0, 30, 3}, base, false)   // uneven, with an empty chunk
	f.Add(valid[walHeaderLen:], ones, base, true)    // resumed mid-log
	f.Add(valid[:len(valid)-3], ones, base, false)   // truncated mid-frame
	f.Add(valid[:walHeaderLen+2], ones, base, false) // truncated in a length prefix
	f.Add(valid[:walHeaderLen-1], ones, base, false) // truncated in the header
	f.Add(valid, []byte{16, 5}, base+1, false)       // wrong base
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-6] ^= 0x01 // CRC-caught flip in the last record
	f.Add(flipped, []byte{40}, base, false)
	// A length prefix claiming 4 GiB: the scanner must wait for bytes that
	// never come, not allocate them.
	huge := binary.LittleEndian.AppendUint32(nil, 0xffffffff)
	huge = append(huge, recAppend, 1, 2, 3)
	f.Add(append(bytes.Clone(valid), huge...), ones, base, false)
	f.Add(huge, []byte{2}, base, true)

	f.Fuzz(func(t *testing.T, stream, chunks []byte, base int64, midLog bool) {
		start := int64(0)
		if midLog {
			start = WALHeaderLen
		}
		whole := scanStream(t, base, start, stream, nil)
		chunked := scanStream(t, base, start, stream, chunks)
		if (whole.err == nil) != (chunked.err == nil) {
			t.Fatalf("whole stream error %v, chunked %v", whole.err, chunked.err)
		}
		if whole.offset != chunked.offset {
			t.Fatalf("whole stream ends at %d, chunked at %d", whole.offset, chunked.offset)
		}
		if !reflect.DeepEqual(whole.recs, chunked.recs) {
			t.Fatalf("whole stream decoded %d records, chunked %d, or they differ", len(whole.recs), len(chunked.recs))
		}
	})
}

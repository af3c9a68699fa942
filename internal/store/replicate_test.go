package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// walBytes renders a complete WAL file (header + records) in memory by
// round-tripping through a real file.
func walBytes(t *testing.T, base int64, recs []Record) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.ckpw")
	w, err := createWAL(path, base, false)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for _, rec := range recs {
		switch {
		case rec.Append != nil:
			err = w.append(recAppend, encodeAppendRecord(rec.Append))
		case rec.Release != nil:
			err = w.append(recRelease, appendReleaseRecord(nil, rec.Release))
		}
		if err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return data
}

func sampleRecords() []Record {
	return []Record{
		{Append: &AppendRecord{Version: 4, Rows: [][]string{{"14850", "M"}, {"14851", "F"}}}},
		{Release: &ReleaseRecord{
			Index: 0, Version: 4, Rows: 6, CreatedUnixNano: 99,
			Levels: map[string]int{"Zip": 2},
			Keys:   []string{"1****|*"}, Groups: [][]int{{0, 1, 2, 3, 4, 5}},
		}},
		{Append: &AppendRecord{Version: 5, Rows: [][]string{{"13053", "F"}}}},
	}
}

// TestRecordScannerStreaming feeds a WAL stream to the scanner one byte
// at a time and asserts it recovers exactly the committed records with
// correct resume offsets, from offset 0 (header included) and from a
// mid-log cursor.
func TestRecordScannerStreaming(t *testing.T) {
	recs := sampleRecords()
	data := walBytes(t, 3, recs)

	s, err := NewRecordScanner(3, 0)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	var got []Record
	var offsets []int64
	for i := range data {
		s.Feed(data[i : i+1])
		for {
			rec, ok, err := s.Next()
			if err != nil {
				t.Fatalf("next at byte %d: %v", i, err)
			}
			if !ok {
				break
			}
			got = append(got, rec)
			offsets = append(offsets, s.Offset())
		}
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("records mismatch:\n got %+v\nwant %+v", got, recs)
	}
	if s.Offset() != int64(len(data)) || s.Buffered() != 0 {
		t.Fatalf("final offset %d buffered %d, want %d and 0", s.Offset(), s.Buffered(), len(data))
	}

	// Resume mid-log: a scanner positioned after the first record decodes
	// the rest without seeing the header.
	mid := offsets[0]
	s2, err := NewRecordScanner(3, mid)
	if err != nil {
		t.Fatalf("new mid: %v", err)
	}
	s2.Feed(data[mid:])
	var rest []Record
	for {
		rec, ok, err := s2.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if !ok {
			break
		}
		rest = append(rest, rec)
	}
	if !reflect.DeepEqual(rest, recs[1:]) {
		t.Fatalf("mid-log records mismatch:\n got %+v\nwant %+v", rest, recs[1:])
	}
}

func TestRecordScannerRejects(t *testing.T) {
	recs := sampleRecords()
	data := walBytes(t, 3, recs)

	// Wrong expected base.
	s, _ := NewRecordScanner(7, 0)
	s.Feed(data)
	if _, _, err := s.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong base: err = %v, want ErrCorrupt", err)
	}

	// A complete frame with a flipped payload byte is ErrCorrupt, not a
	// silent skip.
	bad := append([]byte(nil), data...)
	bad[walHeaderLen+6] ^= 0xff
	s2, _ := NewRecordScanner(3, 0)
	s2.Feed(bad)
	if _, _, err := s2.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: err = %v, want ErrCorrupt", err)
	}

	// Cursors inside the header are rejected up front.
	if _, err := NewRecordScanner(3, walHeaderLen-1); err == nil {
		t.Fatal("offset inside header accepted")
	}
	if _, err := NewRecordScanner(3, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// TestCommittedPrefixCursor is the torn-tail regression test for the
// cursor API: a reader positioned mid-log never observes bytes beyond the
// committed prefix — not even a torn tail that the writer later truncates
// and overwrites with a different record.
func TestCommittedPrefixCursor(t *testing.T) {
	m, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sd := sampleSnapshot()
	dl, err := m.Create("d", sd)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := dl.LogAppend(&AppendRecord{Version: 4, Rows: [][]string{{"14850", "M"}}}); err != nil {
		t.Fatalf("append: %v", err)
	}
	base, committed, records := dl.Committed()
	if base != sd.Version || records != 1 {
		t.Fatalf("committed = (%d, %d, %d)", base, committed, records)
	}

	// Reading the committed prefix in tiny chunks reconstructs the file
	// byte-for-byte.
	var shipped []byte
	for from := int64(0); from < committed; {
		chunk, c, err := dl.ReadCommitted(from, 3)
		if err != nil {
			t.Fatalf("read at %d: %v", from, err)
		}
		if c != committed {
			t.Fatalf("committed moved: %d != %d", c, committed)
		}
		shipped = append(shipped, chunk...)
		from += int64(len(chunk))
	}
	walPath := filepath.Join(m.Dir(), "d", walName(sd.Version))
	onDisk, _ := os.ReadFile(walPath)
	if !bytes.Equal(shipped, onDisk) {
		t.Fatal("chunked committed reads differ from the file")
	}

	// A torn tail lands on disk (a failed or in-flight write past the
	// committed size). The cursor API must never surface it.
	garbage := []byte("GARBAGEGARBAGEGARBAGE")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open for garbage: %v", err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	f.Close()
	if data, c, err := dl.ReadCommitted(committed, 1<<20); err != nil || len(data) != 0 || c != committed {
		t.Fatalf("read past committed saw %d bytes (c=%d, err=%v), want none", len(data), c, err)
	}
	if _, _, err := dl.ReadCommitted(committed+int64(len(garbage)), 0); err == nil {
		t.Fatal("cursor beyond committed prefix accepted")
	}

	// The writer keeps going: its next record overwrites the torn bytes
	// (the writer's own offset never advanced past the committed prefix).
	next := &AppendRecord{Version: 5, Rows: [][]string{{"13053", "F"}, {"14853", "M"}}}
	if err := dl.LogAppend(next); err != nil {
		t.Fatalf("append after torn tail: %v", err)
	}
	_, committed2, _ := dl.Committed()

	// A mid-log reader resuming at the old cursor must decode exactly the
	// new record — never the garbage that briefly occupied those offsets.
	tail, _, err := dl.ReadCommitted(committed, 1<<20)
	if err != nil {
		t.Fatalf("resume read: %v", err)
	}
	if bytes.Contains(tail, garbage[:8]) {
		t.Fatal("resumed read leaked torn-tail bytes")
	}
	s, err := NewRecordScanner(sd.Version, committed)
	if err != nil {
		t.Fatalf("scanner: %v", err)
	}
	s.Feed(tail)
	rec, ok, err := s.Next()
	if err != nil || !ok || rec.Append == nil {
		t.Fatalf("scan resumed tail: rec=%+v ok=%v err=%v", rec, ok, err)
	}
	if !reflect.DeepEqual(rec.Append, next) {
		t.Fatalf("resumed record mismatch: got %+v want %+v", rec.Append, next)
	}
	if s.Offset() != committed2 {
		t.Fatalf("scanner offset %d, want committed %d", s.Offset(), committed2)
	}
	if err := dl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// And recovery agrees: replaying the file yields both records, with
	// the torn bytes beyond the final committed offset discarded.
	_, recs, _, err := m.Load("d")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(recs) != 2 || !reflect.DeepEqual(recs[1].Append, next) {
		t.Fatalf("recovery records mismatch: %+v", recs)
	}
}

// TestInstallSnapshotByteIdentical proves the follower bootstrap path:
// installing the leader's raw snapshot bytes and re-logging the same
// records reproduces the leader's on-disk state byte-for-byte, which is
// what lets a rebooted follower resume from local WAL size alone.
func TestInstallSnapshotByteIdentical(t *testing.T) {
	leader, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("open leader: %v", err)
	}
	ldl, err := leader.Create("d", sampleSnapshot())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for _, rec := range sampleRecords() {
		switch {
		case rec.Append != nil:
			err = ldl.LogAppend(rec.Append)
		case rec.Release != nil:
			err = ldl.LogRelease(rec.Release)
		}
		if err != nil {
			t.Fatalf("log: %v", err)
		}
	}

	raw, version, err := ldl.SnapshotBytes()
	if err != nil {
		t.Fatalf("snapshot bytes: %v", err)
	}
	if version != 3 {
		t.Fatalf("snapshot version %d, want 3", version)
	}

	follower, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	sd, fdl, err := follower.InstallSnapshot("d", raw)
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	if !reflect.DeepEqual(sd, sampleSnapshot()) {
		t.Fatalf("decoded snapshot mismatch: %+v", sd)
	}
	lSnap, _ := os.ReadFile(filepath.Join(leader.Dir(), "d", snapName(3)))
	fSnap, _ := os.ReadFile(filepath.Join(follower.Dir(), "d", snapName(3)))
	if !bytes.Equal(lSnap, fSnap) || len(fSnap) == 0 {
		t.Fatal("installed snapshot file differs from the leader's")
	}

	// Ship the WAL: apply the same records through the follower's log.
	for _, rec := range sampleRecords() {
		switch {
		case rec.Append != nil:
			err = fdl.LogAppend(rec.Append)
		case rec.Release != nil:
			err = fdl.LogRelease(rec.Release)
		}
		if err != nil {
			t.Fatalf("follower log: %v", err)
		}
	}
	lWAL, _ := os.ReadFile(filepath.Join(leader.Dir(), "d", walName(3)))
	fWAL, _ := os.ReadFile(filepath.Join(follower.Dir(), "d", walName(3)))
	if !bytes.Equal(lWAL, fWAL) || len(fWAL) <= walHeaderLen {
		t.Fatal("follower WAL differs from the leader's")
	}
	_, lc, _ := ldl.Committed()
	_, fc, _ := fdl.Committed()
	if lc != fc {
		t.Fatalf("committed sizes differ: leader %d follower %d", lc, fc)
	}
}

func TestCommitNotify(t *testing.T) {
	m, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	dl, err := m.Create("d", sampleSnapshot())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	ch := dl.CommitNotify()
	select {
	case <-ch:
		t.Fatal("notify fired before any commit")
	default:
	}
	if err := dl.LogAppend(&AppendRecord{Version: 4, Rows: [][]string{{"14850", "M"}}}); err != nil {
		t.Fatalf("append: %v", err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("notify did not fire on commit")
	}
	// Close wakes waiters too, so a shutting-down leader does not strand
	// long-polls.
	ch = dl.CommitNotify()
	if err := dl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("notify did not fire on close")
	}
}

// TestReadCommittedReturnsWholeFrame: a read capped below the size of the
// record at its cursor returns that whole record, and only it, so a
// reader that drops a partial frame and re-reads from its cursor always
// makes progress. From 0 the read returns the header and the first
// record.
func TestReadCommittedReturnsWholeFrame(t *testing.T) {
	m, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sd := sampleSnapshot()
	dl, err := m.Create("d", sd)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	large := &AppendRecord{Version: 4}
	for i := 0; i < 200; i++ {
		large.Rows = append(large.Rows, []string{"14850", "M"})
	}
	small := &AppendRecord{Version: 5, Rows: [][]string{{"13053", "F"}}}
	for _, ar := range []*AppendRecord{large, small} {
		if err := dl.LogAppend(ar); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	_, committed, _ := dl.Committed()

	// Each read from a record boundary, capped at one byte, returns
	// exactly the record there.
	var got []*AppendRecord
	for from := int64(WALHeaderLen); from < committed; {
		data, _, err := dl.ReadCommitted(from, 1)
		if err != nil {
			t.Fatalf("read at %d: %v", from, err)
		}
		s, err := NewRecordScanner(sd.Version, from)
		if err != nil {
			t.Fatalf("scanner: %v", err)
		}
		s.Feed(data)
		rec, ok, err := s.Next()
		if err != nil || !ok || rec.Append == nil || s.Buffered() != 0 {
			t.Fatalf("read at %d (%d bytes): rec=%+v ok=%v err=%v, %d bytes left over", from, len(data), rec, ok, err, s.Buffered())
		}
		got = append(got, rec.Append)
		from = s.Offset()
	}
	if !reflect.DeepEqual(got, []*AppendRecord{large, small}) {
		t.Fatalf("records %+v, want the large and the small append", got)
	}

	// From 0, the header and the whole first record.
	data, _, err := dl.ReadCommitted(0, 1)
	if err != nil {
		t.Fatalf("read at 0: %v", err)
	}
	s, _ := NewRecordScanner(sd.Version, 0)
	s.Feed(data)
	if rec, ok, err := s.Next(); err != nil || !ok || !reflect.DeepEqual(rec.Append, large) || s.Buffered() != 0 {
		t.Fatalf("read at 0 (%d bytes): ok=%v err=%v, %d bytes left over", len(data), ok, err, s.Buffered())
	}
}

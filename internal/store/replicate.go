package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// This file is the store's replication surface: the committed-prefix
// cursor API a leader serves WAL bytes from, the incremental record
// scanner a follower decodes the shipped stream with, and raw snapshot
// transfer. The invariant everything here leans on is that walWriter.size
// only advances after a whole framed record is on disk — so any read
// capped at that size ("the committed prefix") can never observe a torn
// or in-flight tail, even one the writer later truncates and overwrites.

// WALHeaderLen is the size in bytes of the fixed WAL file header. A
// shipping cursor is either 0 (the stream starts with the header) or at
// least this.
const WALHeaderLen = walHeaderLen

// RecordScanner incrementally decodes the CRC-framed WAL byte stream a
// replication client fetches. Feed it raw bytes as they arrive and drain
// complete records with Next; an incomplete frame at the end of the
// buffered bytes simply waits for more input. A scanner positioned at
// offset 0 first consumes and validates the WAL file header against the
// expected base version. Not safe for concurrent use.
type RecordScanner struct {
	base      int64
	off       int64
	buf       []byte
	expectHdr bool
}

// NewRecordScanner starts a scanner for a WAL based at base whose stream
// begins at absolute file offset from. from must be 0 (header included)
// or past the header.
func NewRecordScanner(base, from int64) (*RecordScanner, error) {
	if from != 0 && from < walHeaderLen {
		return nil, fmt.Errorf("store: scanner offset %d is inside the wal header", from)
	}
	if from < 0 {
		return nil, fmt.Errorf("store: negative scanner offset %d", from)
	}
	return &RecordScanner{base: base, off: from, expectHdr: from == 0}, nil
}

// Feed appends raw stream bytes for Next to decode.
func (s *RecordScanner) Feed(p []byte) { s.buf = append(s.buf, p...) }

// Next decodes the next complete record. ok is false when the buffered
// bytes end mid-frame — Feed more and retry. A complete frame that fails
// its CRC or decode is ErrCorrupt; a header with the wrong base or format
// is ErrCorrupt / ErrFormatVersion. After an error the scanner is stuck:
// the caller re-fetches from its last good offset with a fresh scanner.
func (s *RecordScanner) Next() (rec Record, ok bool, err error) {
	if s.expectHdr {
		if len(s.buf) < walHeaderLen {
			return Record{}, false, nil
		}
		base, err := parseWALHeader(s.buf)
		if err != nil {
			return Record{}, false, err
		}
		if base != s.base {
			return Record{}, false, corruptf("wal based at %d, expected %d", base, s.base)
		}
		s.buf = s.buf[walHeaderLen:]
		s.off = walHeaderLen
		s.expectHdr = false
	}
	rec, n, err := scanRecord(s.buf, s.off)
	if err != nil {
		return Record{}, false, err
	}
	if n == 0 {
		return Record{}, false, nil
	}
	s.buf = s.buf[n:]
	s.off += n
	return rec, true, nil
}

// Offset reports the absolute WAL byte offset just past the last fully
// consumed header or record — the resume cursor.
func (s *RecordScanner) Offset() int64 { return s.off }

// Buffered reports how many fed bytes are waiting (a partial frame).
func (s *RecordScanner) Buffered() int { return len(s.buf) }

// BaseVersion reports the snapshot version the current WAL extends.
func (dl *DatasetLog) BaseVersion() int64 {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	return dl.snapVersion
}

// Committed reports the shipping-visible state of the current WAL
// generation: its base snapshot version, the committed byte size (whole,
// CRC-valid records only — a failed or in-flight write past it is
// invisible by construction), and the committed record count. size is 0
// after Close.
func (dl *DatasetLog) Committed() (base, size int64, records int) {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	if dl.w == nil {
		return dl.snapVersion, 0, dl.records
	}
	return dl.snapVersion, dl.w.size, dl.records
}

// ReadCommitted returns up to max bytes of the current WAL generation
// starting at byte offset from, never reading past the committed prefix —
// a concurrent torn or failed write beyond it can never leak into the
// result, and the lock excludes a concurrent Compact swapping the
// generation mid-read. from == 0 includes the file header. committed
// reports the prefix size the read was capped at.
//
// A read at a frame boundary (a RecordScanner's Offset, or 0) returns at
// least the whole first record there, even past max: a reader that drops
// a partial frame and re-reads from the same cursor would otherwise get
// the same prefix of a record larger than max forever. The committed
// prefix always ends on a frame boundary, so that record is whole in it.
func (dl *DatasetLog) ReadCommitted(from, max int64) (data []byte, committed int64, err error) {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	if dl.w == nil {
		return nil, 0, os.ErrClosed
	}
	committed = dl.w.size
	if from < 0 || from > committed {
		return nil, committed, fmt.Errorf("store: read offset %d outside committed prefix [0,%d]", from, committed)
	}
	n := committed - from
	if n == 0 {
		return nil, committed, nil
	}
	f, err := os.Open(filepath.Join(dl.dir, walName(dl.snapVersion)))
	if err != nil {
		return nil, committed, err
	}
	defer f.Close()
	if max > 0 && n > max {
		frame := from
		if from == 0 {
			frame = walHeaderLen
		}
		end, err := frameEnd(f, frame, committed)
		if err != nil {
			return nil, committed, err
		}
		n = max
		if end-from > n {
			n = end - from
		}
	}
	data = make([]byte, n)
	if _, err := f.ReadAt(data, from); err != nil {
		return nil, committed, err
	}
	return data, committed, nil
}

// frameEnd returns the offset just past the record frame that starts at
// off in f, read from its length prefix, or off itself when off is not
// past the header, the prefix lies beyond committed, or the frame it
// claims would end beyond committed (off is then no frame boundary).
func frameEnd(f *os.File, off, committed int64) (int64, error) {
	var prefix [4]byte
	if off < walHeaderLen || off+int64(len(prefix)) > committed {
		return off, nil
	}
	if _, err := f.ReadAt(prefix[:], off); err != nil {
		return 0, err
	}
	end := off + 4 + 1 + int64(binary.LittleEndian.Uint32(prefix[:])) + 4
	if end > committed {
		return off, nil
	}
	return end, nil
}

// SnapshotBytes returns the raw bytes of the current snapshot file and
// its version, read under the lock so a concurrent Compact cannot swap
// the generation mid-read. The bytes are the exact on-disk encoding — a
// follower that writes them verbatim is byte-identical to the leader.
func (dl *DatasetLog) SnapshotBytes() ([]byte, int64, error) {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(dl.dir, snapName(dl.snapVersion)))
	if err != nil {
		return nil, 0, err
	}
	return data, dl.snapVersion, nil
}

// CommitNotify returns a channel closed after the next committed record
// or compaction — the long-poll primitive for the WAL shipping endpoint.
// Callers re-check Committed after a wake and re-arm with a fresh call.
func (dl *DatasetLog) CommitNotify() <-chan struct{} {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	if dl.notify == nil {
		dl.notify = make(chan struct{})
	}
	return dl.notify
}

// notifyLocked wakes CommitNotify waiters. Callers hold dl.mu.
func (dl *DatasetLog) notifyLocked() {
	if dl.notify != nil {
		close(dl.notify)
		dl.notify = nil
	}
}

// DecodeSnapshot validates and decodes raw CKPS snapshot bytes, as served
// by the replication snapshot endpoint.
func DecodeSnapshot(raw []byte) (*SnapshotData, error) {
	return decodeSnapshot(raw)
}

// InstallSnapshot persists raw snapshot bytes fetched from a leader as a
// dataset's entire on-disk state: the bytes are validated, written
// verbatim (atomically) as the current snapshot generation, any prior
// state under the name is pruned, and a fresh empty WAL keyed to the
// snapshot version is started. The resulting directory is byte-identical
// to the leader's at that version, which is what lets a follower resume
// from its local store by WAL size alone.
func (m *Manager) InstallSnapshot(name string, raw []byte) (*SnapshotData, *DatasetLog, error) {
	sd, err := DecodeSnapshot(raw)
	if err != nil {
		return nil, nil, err
	}
	dir := filepath.Join(m.opts.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := prune(dir, -1); err != nil {
		return nil, nil, err
	}
	if err := writeFileAtomic(filepath.Join(dir, snapName(sd.Version)), raw); err != nil {
		return nil, nil, err
	}
	dl := &DatasetLog{dir: dir, opts: m.opts, snapVersion: sd.Version}
	w, err := createWAL(filepath.Join(dir, walName(sd.Version)), sd.Version, m.opts.Fsync)
	if err != nil {
		return nil, nil, err
	}
	w.onFsync = dl.noteFsync
	dl.w = w
	return sd, dl, syncDir(dir)
}

package server

import (
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/dataload"
	"ckprivacy/internal/store"
	"ckprivacy/internal/table"
)

// This file wires the durable store (internal/store) through the serving
// layer. Per persisted dataset the server keeps a datasetStore: the open
// WAL plus the health flag for the write path. The persistence discipline
// is apply-then-log under the dataset's appendMu: the in-memory mutation
// commits first, then its WAL record. A failed log therefore leaves the
// in-memory state ahead of disk; the dataset is marked broken, the client
// gets a 503 (persist_failed / disk_full) with Retry-After, and the next
// write heals by compacting — snapshotting the current in-memory state,
// which by construction includes everything the lost records described.

// persistError marks a durable-store write failure on the request path.
// It wraps the underlying error so errors.Is(err, syscall.ENOSPC) still
// sees through it (the disk_full code).
type persistError struct{ err error }

func (e *persistError) Error() string {
	return fmt.Sprintf("dataset state applied in memory but not persisted: %v", e.err)
}

func (e *persistError) Unwrap() error { return e.err }

// datasetStore is one dataset's durable-log handle plus write-path health.
type datasetStore struct {
	log *store.DatasetLog

	mu     sync.Mutex
	broken bool
	// replaySeconds is how long this dataset's boot recovery took
	// (snapshot decode + WAL replay); 0 for cold datasets.
	replaySeconds float64
}

// isBroken reports whether the last persist attempt failed.
func (p *datasetStore) isBroken() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.broken
}

// markBroken flags the write path as needing a heal-by-compaction.
func (p *datasetStore) markBroken() {
	p.mu.Lock()
	p.broken = true
	p.mu.Unlock()
}

// markHealed clears the flag after a successful compaction.
func (p *datasetStore) markHealed() {
	p.mu.Lock()
	p.broken = false
	p.mu.Unlock()
}

// writePersistFailure renders a store write failure as the uniform error
// envelope: 503 with Retry-After, code disk_full when the underlying
// error is ENOSPC and persist_failed otherwise.
func writePersistFailure(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "5")
	writeError(w, http.StatusServiceUnavailable, &persistError{err: err})
}

// buildSnapshotData materializes the dataset's current state as a store
// snapshot: the pinned encoded columns, the bundle's rebuild source and
// the release history. ok is false when the dataset cannot be persisted
// (no rebuild source). Callers hold ds.appendMu so the version cannot
// advance mid-build.
func buildSnapshotData(ds *dataset) (*store.SnapshotData, bool, error) {
	if ds.bundle.Source == nil {
		return nil, false, nil
	}
	snap := ds.problem.Snapshot()
	enc := snap.Encoded()
	srcJSON, err := dataload.MarshalSource(ds.bundle.Source)
	if err != nil {
		return nil, false, err
	}
	attrs := make([]string, len(enc.Table.Schema.Attrs))
	for i := range attrs {
		attrs[i] = enc.Table.Schema.Attrs[i].Name
	}
	sd := &store.SnapshotData{
		Version: snap.Version(),
		Rows:    snap.Rows(),
		Attrs:   attrs,
		Source:  srcJSON,
		Dicts:   make([][]string, len(enc.Dicts)),
		Cols:    enc.Cols,
	}
	for c, d := range enc.Dicts {
		sd.Dicts[c] = d.Values()
	}
	sd.Releases = exportReleases(&ds.releases)
	return sd, true, nil
}

// exportReleases materializes a release log as its persistent form.
func exportReleases(l *releaseLog) *store.ReleaseState {
	rs, evicted, next := l.exportState()
	if len(rs) == 0 && evicted == 0 && next == 0 {
		return nil
	}
	out := &store.ReleaseState{Next: next, Evicted: evicted}
	for _, rel := range rs {
		out.Releases = append(out.Releases, releaseToRecord(rel))
	}
	return out
}

// releaseToRecord converts one in-memory release to its persistent form:
// identity plus the materialized partition (bucket keys and tuple ids).
func releaseToRecord(rel *release) store.ReleaseRecord {
	rec := store.ReleaseRecord{
		Index:           rel.index,
		Version:         rel.version,
		Rows:            rel.rows,
		CreatedUnixNano: rel.created.UnixNano(),
		Levels:          map[string]int(rel.levels),
		Keys:            make([]string, len(rel.bz.Buckets)),
		Groups:          make([][]int, len(rel.bz.Buckets)),
	}
	for i, b := range rel.bz.Buckets {
		rec.Keys[i] = b.Key
		rec.Groups[i] = b.Tuples
	}
	return rec
}

// recordToRelease rebuilds one in-memory release from its persistent form
// over the recovered master table. The bucketization's source is the
// pinned row prefix of the release's version — row identities are stable
// across appends, so sensitive values (all intersect and MaxDisclosure
// read) decode identically to the original release.
func recordToRelease(master *table.Table, rec *store.ReleaseRecord) (*release, error) {
	if rec.Rows > len(master.Rows) {
		return nil, fmt.Errorf("release %d needs %d rows, recovered table has %d",
			rec.Index, rec.Rows, len(master.Rows))
	}
	prefix := &table.Table{Schema: master.Schema, Rows: master.Rows[:rec.Rows:rec.Rows]}
	bz, err := bucket.FromTupleGroups(prefix, rec.Keys, rec.Groups)
	if err != nil {
		return nil, err
	}
	return &release{
		index:   rec.Index,
		version: rec.Version,
		rows:    rec.Rows,
		levels:  bucket.Levels(rec.Levels),
		bz:      bz,
		created: time.Unix(0, rec.CreatedUnixNano),
	}, nil
}

// persistNewDataset writes a fresh dataset's first snapshot + WAL. A nil
// return with ds.persist still nil means the dataset is simply not
// persistable (no rebuild source) — not an error.
func (s *Server) persistNewDataset(name string, ds *dataset) error {
	if s.store == nil {
		return nil
	}
	sd, ok, err := buildSnapshotData(ds)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	dl, err := s.store.Create(name, sd)
	if err != nil {
		return err
	}
	ds.persist = &datasetStore{log: dl}
	return nil
}

// compactLocked snapshots the dataset's current in-memory state and swaps
// in a fresh WAL; the caller holds ds.appendMu. It doubles as the heal
// path: a successful compaction makes disk a faithful copy again.
func (s *Server) compactLocked(ds *dataset) error {
	sd, ok, err := buildSnapshotData(ds)
	if err == nil && !ok {
		err = fmt.Errorf("dataset is no longer snapshotable")
	}
	if err != nil {
		ds.persist.markBroken()
		return err
	}
	if err := ds.persist.log.Compact(sd); err != nil {
		ds.persist.markBroken()
		return err
	}
	ds.persist.markHealed()
	return nil
}

// healIfBrokenLocked restores a broken persist path by compaction before
// the next mutation applies; the caller holds ds.appendMu.
func (s *Server) healIfBrokenLocked(ds *dataset) error {
	if ds.persist == nil || !ds.persist.isBroken() {
		return nil
	}
	return s.compactLocked(ds)
}

// logAppendLocked records a committed append batch; the caller holds
// ds.appendMu. On failure the dataset is marked broken.
func (s *Server) logAppendLocked(ds *dataset, version int64, rows [][]string) error {
	if ds.persist == nil {
		return nil
	}
	if err := ds.persist.log.LogAppend(&store.AppendRecord{Version: version, Rows: rows}); err != nil {
		ds.persist.markBroken()
		return err
	}
	if ds.persist.log.ShouldCompact() {
		// Threshold compaction is best-effort: a failure marks the dataset
		// broken for the next write, but this append is already durable.
		_ = s.compactLocked(ds)
	}
	return nil
}

// logReleaseLocked records a committed release; the caller holds
// ds.appendMu. On failure the dataset is marked broken.
func (s *Server) logReleaseLocked(ds *dataset, rel *release) error {
	if ds.persist == nil {
		return nil
	}
	rec := releaseToRecord(rel)
	if err := ds.persist.log.LogRelease(&rec); err != nil {
		ds.persist.markBroken()
		return err
	}
	return nil
}

// RecoveryStats summarizes a RecoverAll pass.
type RecoveryStats struct {
	// Datasets is how many datasets were recovered into the registry.
	Datasets int
	// Replayed is how many WAL records (appends + releases) were applied.
	Replayed int
	// Elapsed is the total recovery wall-clock time.
	Elapsed time.Duration
}

// RecoverAll loads every dataset in the server's durable store into the
// registry: highest-version snapshot decoded onto the columnar substrate
// (table.NewEncodedFromParts — no re-encoding), bundle rebuilt from its
// source descriptor, release window rebuilt from its materialized
// partitions, and the WAL tail replayed record by record through the same
// applier followers use. The daemon calls this once before opening its
// listener; recovered state is byte-identical to the pre-crash process's
// (the crash-point property tests assert this).
func (s *Server) RecoverAll() (RecoveryStats, error) {
	var stats RecoveryStats
	if s.store == nil {
		return stats, nil
	}
	// Recovery is a pure allocation burst over a small starting heap: with
	// the default target the collector re-walks the half-built dataset
	// several times before boot finishes, and on small machines that mark
	// work roughly doubles warm-boot latency. Relax the target for the
	// duration of the replay and restore it before serving; the first
	// steady-state collection brings the heap back to normal pacing.
	prevGC := debug.SetGCPercent(400)
	defer debug.SetGCPercent(prevGC)
	begin := time.Now()
	names, err := s.store.Datasets()
	if err != nil {
		return stats, err
	}
	for _, name := range names {
		replayed, err := s.recoverDataset(name)
		if err != nil {
			return stats, fmt.Errorf("recovering dataset %q: %w", name, err)
		}
		stats.Datasets++
		stats.Replayed += replayed
	}
	stats.Elapsed = time.Since(begin)
	return stats, nil
}

// datasetFromSnapshot builds a dataset from a decoded snapshot: the source
// descriptor parsed and its schema checked against the snapshot's
// attributes, the columns mounted onto the columnar substrate without
// re-encoding (table.NewEncodedFromParts), the problem built at the
// snapshot's version, dl wrapped as the durable log (nil for a
// memory-only follower) and the retained release window restored. On a
// follower the snapshot's version is pinned as the first ?version= read.
// Boot recovery and replica snapshot install both build datasets here;
// on error the caller still owns dl.
func (s *Server) datasetFromSnapshot(name string, sd *store.SnapshotData, dl *store.DatasetLog, recovered string) (*dataset, error) {
	src, err := dataload.ParseSource(sd.Source)
	if err != nil {
		return nil, err
	}
	schema, err := dataload.SourceSchema(src)
	if err != nil {
		return nil, err
	}
	if len(sd.Attrs) != len(schema.Attrs) {
		return nil, fmt.Errorf("snapshot has %d attributes, source schema has %d", len(sd.Attrs), len(schema.Attrs))
	}
	for i, want := range sd.Attrs {
		if got := schema.Attrs[i].Name; got != want {
			return nil, fmt.Errorf("snapshot attribute %d is %q, source schema says %q", i, want, got)
		}
	}
	enc, err := table.NewEncodedFromParts(schema, sd.Dicts, sd.Cols)
	if err != nil {
		return nil, err
	}
	b, err := dataload.FromSource(name, src, enc.Table)
	if err != nil {
		return nil, err
	}
	p, err := anonymize.NewProblemFromEncoded(enc, b.Hierarchies, b.QI, sd.Version, s.cfg.problemOptions())
	if err != nil {
		return nil, err
	}
	ds := &dataset{bundle: b, problem: p, releases: releaseLog{max: s.cfg.MaxReleases}, recovered: recovered}
	if dl != nil {
		ds.persist = &datasetStore{log: dl}
	}
	if rs := sd.Releases; rs != nil {
		ds.releases.next, ds.releases.evicted = rs.Next, rs.Evicted
		for i := range rs.Releases {
			rel, err := recordToRelease(p.Table, &rs.Releases[i])
			if err != nil {
				return nil, err
			}
			ds.releases.rs = append(ds.releases.rs, rel)
		}
	}
	if s.cfg.ReadOnly {
		ds.pins = newVersionPins(s.cfg.MaxPinnedVersions)
		ds.pins.pin(p.Snapshot())
	}
	return ds, nil
}

// recoverDataset rebuilds one dataset from its snapshot and replays its
// WAL tail through applyRecord in log order. The log order is the order
// the leader committed the mutations under appendMu, so every release
// record follows the appends that created its rows.
func (s *Server) recoverDataset(name string) (replayed int, err error) {
	begin := time.Now()
	sd, recs, dl, err := s.store.Load(name)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			dl.Close()
		}
	}()
	mode := "snapshot"
	if len(recs) > 0 {
		mode = "wal_replay"
	}
	ds, err := s.datasetFromSnapshot(name, sd, dl, mode)
	if err != nil {
		return 0, err
	}
	for i, rec := range recs {
		if err := applyRecord(ds, rec); err != nil {
			return 0, fmt.Errorf("replaying wal record %d: %w", i, err)
		}
	}
	if s.cfg.ReadOnly {
		// On a follower, boot recovery doubles as replication catch-up from
		// the local store: its committed WAL is the resume position.
		_, offset, records := dl.Committed()
		ds.repl = newReplicaState(ReplicaProgress{
			AppliedVersion: ds.problem.Version(),
			AppliedOffset:  offset,
			AppliedRecords: records,
		})
	}
	ds.persist.replaySeconds = time.Since(begin).Seconds()
	if err := s.registry.insert(name, ds); err != nil {
		return 0, err
	}
	return len(recs), nil
}

// applyRecord applies one WAL record to a dataset. It is the one replay
// step, shared by boot recovery and follower tailing: an append runs
// through Problem.Append and must mint the version its record names (and
// is pinned on a follower); a release is rebuilt over the grown table and
// must carry exactly the log's next release index. The caller holds
// ds.appendMu or has not yet published ds.
func applyRecord(ds *dataset, rec store.Record) error {
	switch {
	case rec.Append != nil:
		res, err := ds.problem.Append(tableRows(rec.Append.Rows))
		if err != nil {
			return fmt.Errorf("applying append to version %d: %w", rec.Append.Version, err)
		}
		if res.Version != rec.Append.Version {
			return fmt.Errorf("applied append produced version %d, wal record says %d",
				res.Version, rec.Append.Version)
		}
		if ds.pins != nil {
			ds.pins.pin(ds.problem.Snapshot())
		}
		return nil
	case rec.Release != nil:
		rel, err := recordToRelease(ds.problem.Table, rec.Release)
		if err != nil {
			return fmt.Errorf("decoding release %d: %w", rec.Release.Index, err)
		}
		return ds.releases.replay(rel)
	default:
		return fmt.Errorf("empty wal record")
	}
}

// tableRows views wire or WAL rows (values in schema column order) as
// table rows without copying the values.
func tableRows(rows [][]string) []table.Row {
	out := make([]table.Row, len(rows))
	for i, r := range rows {
		out[i] = table.Row(r)
	}
	return out
}

// persistCodeOf maps a persist failure to its envelope code (see
// errorCode); split out so the mapping is testable.
func persistCodeOf(err error) string {
	if errors.Is(err, syscall.ENOSPC) {
		return "disk_full"
	}
	return "persist_failed"
}

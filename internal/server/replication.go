package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/store"
)

// This file is the replication layer. A leader exposes read-only shipping
// endpoints over its durable store: the dataset list, the current CKPS
// snapshot (raw bytes), and the WAL's committed prefix at arbitrary byte
// cursors with long-poll semantics. A follower (Config.ReadOnly) is
// "recovery that never stops": internal/replica boots each dataset from
// the leader's snapshot through datasetFromSnapshot and applies every
// tailed WAL record through applyRecord — the two functions boot recovery
// runs — so the follower's state is byte-identical to the leader's at
// every applied version. Followers additionally retain a bounded window
// of pinned version snapshots so reads can be served at a client-chosen
// historical version (?version=).

// errReadOnly rejects writes on a follower (HTTP 403, code "read_only").
var errReadOnly = errors.New("this daemon is a read-only follower; send writes to the leader")

// errNotReady marks a follower still in initial catch-up (HTTP 503,
// code "not_ready").
var errNotReady = errors.New("follower has not completed initial catch-up")

// errWALSuperseded tells a replication client its WAL cursor references a
// generation the leader has compacted away (HTTP 409, code
// "wal_superseded"); the follower re-bootstraps from a fresh snapshot.
var errWALSuperseded = errors.New("wal generation superseded by compaction; fetch a fresh snapshot")

// ErrReplicaDiverged marks a fatal replication failure: an applied record
// did not reproduce the version or release index its WAL record names, so
// the follower's state no longer matches the leader's. The dataset stops
// serving rather than expose divergent answers.
var ErrReplicaDiverged = errors.New("replica diverged from leader")

// rejectReadOnly writes the read_only envelope when the server is a
// follower; mutating handlers call it first.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	if !s.cfg.ReadOnly {
		return false
	}
	writeError(w, http.StatusForbidden, errReadOnly)
	return true
}

// ---- pinned version snapshots (follower reads at ?version=) ----

// versionPins retains a bounded window of a follower dataset's immutable
// version snapshots, newest versions kept. Snapshots are structure-sharing
// (each append patches the previous state), so the window costs far less
// than proportional memory.
type versionPins struct {
	mu    sync.Mutex
	max   int
	byV   map[int64]*anonymize.Snapshot
	order []int64 // pinned versions, ascending (pins arrive in order)
}

func newVersionPins(max int) *versionPins {
	return &versionPins{max: max, byV: make(map[int64]*anonymize.Snapshot)}
}

// pin retains snap, evicting the oldest pinned version past the bound.
func (p *versionPins) pin(snap *anonymize.Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := snap.Version()
	if _, ok := p.byV[v]; ok {
		p.byV[v] = snap
		return
	}
	p.byV[v] = snap
	p.order = append(p.order, v)
	for len(p.order) > p.max {
		delete(p.byV, p.order[0])
		p.order = p.order[1:]
	}
}

// get looks up a pinned version.
func (p *versionPins) get(v int64) (*anonymize.Snapshot, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap, ok := p.byV[v]
	return snap, ok
}

// count reports how many versions are pinned.
func (p *versionPins) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.order)
}

// ---- per-dataset replication status ----

// ReplicaProgress is a follower dataset's replication position, reported
// by the tailing loop after each applied batch and surfaced on
// /v1/datasets and /metrics.
type ReplicaProgress struct {
	// AppliedVersion is the dataset version the follower has applied.
	AppliedVersion int64
	// AppliedOffset is the leader WAL byte offset of the next record to
	// fetch (equal to the follower's local committed WAL size when it
	// persists locally).
	AppliedOffset int64
	// AppliedRecords counts records applied since the current WAL base.
	AppliedRecords int
	// LeaderCommitted / LeaderRecords echo the leader's committed WAL size
	// and record count from the latest fetch.
	LeaderCommitted int64
	// LeaderRecords is the leader's committed record count.
	LeaderRecords int
	// CaughtUp reports whether the follower had applied everything the
	// leader had committed as of the latest fetch.
	CaughtUp bool
}

// replicaState tracks one follower dataset's progress and health.
type replicaState struct {
	mu          sync.Mutex
	pr          ReplicaProgress
	behindSince time.Time
	err         error
}

func newReplicaState(pr ReplicaProgress) *replicaState {
	return &replicaState{pr: pr, behindSince: time.Now()}
}

// setProgress records the latest tail position and lag baseline. A
// successful apply clears any transient failure (divergence, being fatal,
// sticks).
func (rs *replicaState) setProgress(pr ReplicaProgress) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if pr.CaughtUp {
		rs.behindSince = time.Time{}
	} else if rs.pr.CaughtUp || rs.behindSince.IsZero() {
		rs.behindSince = time.Now()
	}
	if rs.err != nil && !errors.Is(rs.err, ErrReplicaDiverged) {
		rs.err = nil
	}
	rs.pr = pr
}

// setErr records a replication failure (transient corruption or fatal
// divergence).
func (rs *replicaState) setErr(err error) {
	rs.mu.Lock()
	rs.err = err
	rs.mu.Unlock()
}

// status returns the progress, current lag in seconds, and failure.
func (rs *replicaState) status() (pr ReplicaProgress, lagSeconds float64, err error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.pr.CaughtUp && !rs.behindSince.IsZero() {
		lagSeconds = time.Since(rs.behindSince).Seconds()
	}
	return rs.pr, lagSeconds, rs.err
}

// divergedErr returns the recorded failure only when it is fatal
// divergence — the one condition that stops a dataset from serving.
func (rs *replicaState) divergedErr() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.err != nil && errors.Is(rs.err, ErrReplicaDiverged) {
		return rs.err
	}
	return nil
}

// lagRecords computes the record lag from a progress report.
func (pr ReplicaProgress) lagRecords() int {
	lag := pr.LeaderRecords - pr.AppliedRecords
	if lag < 0 {
		lag = 0
	}
	return lag
}

// ---- follower wiring (called by internal/replica) ----

// SetReady flips the readiness gate (/readyz). A leader is born ready; a
// follower starts not-ready and is marked ready by the replication loop
// once every dataset has completed initial catch-up.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the readiness gate's state.
func (s *Server) Ready() bool { return s.ready.Load() }

// ReadOnly reports whether the server is a follower (Config.ReadOnly).
func (s *Server) ReadOnly() bool { return s.cfg.ReadOnly }

// InstallReplicaSnapshot bootstraps (or re-bootstraps, after a
// wal_superseded) one follower dataset from the leader's raw snapshot
// bytes. With a local store the bytes are persisted verbatim first —
// keeping the follower's disk byte-identical to the leader's, which is
// what lets a rebooted follower resume from its local WAL size instead of
// re-fetching the snapshot. Any previously installed dataset under the
// name is replaced.
func (s *Server) InstallReplicaSnapshot(name string, raw []byte) error {
	var (
		sd  *store.SnapshotData
		dl  *store.DatasetLog
		err error
	)
	if s.store != nil {
		sd, dl, err = s.store.InstallSnapshot(name, raw)
	} else {
		sd, err = store.DecodeSnapshot(raw)
	}
	if err != nil {
		return err
	}
	ds, err := s.datasetFromSnapshot(name, sd, dl, "replica")
	if err != nil {
		if dl != nil {
			dl.Close()
		}
		return err
	}
	ds.repl = newReplicaState(ReplicaProgress{
		AppliedVersion: sd.Version,
		AppliedOffset:  store.WALHeaderLen,
	})
	if old, ok := s.registry.get(name); ok && old.persist != nil && old.persist != ds.persist {
		old.persist.log.Close()
	}
	return s.registry.replace(name, ds)
}

// ReplicaResume reports the locally recovered replication cursor for a
// dataset: the WAL base version, the committed byte offset to resume
// fetching from, and the records already applied. ok is false when the
// dataset is not installed or not locally persisted (the follower then
// bootstraps from a fresh leader snapshot).
func (s *Server) ReplicaResume(name string) (base, offset int64, records int, ok bool) {
	ds, exists := s.registry.get(name)
	if !exists || ds.persist == nil {
		return 0, 0, 0, false
	}
	base, offset, records = ds.persist.log.Committed()
	return base, offset, records, true
}

// ApplyReplicated applies one shipped WAL record to a follower dataset
// through applyRecord, the step boot replay runs. The follower persists
// locally log-then-apply (the opposite of the leader's apply-then-log): a
// crash between the two replays the record at boot, so disk can never be
// behind memory. A local log failure is transient and retried by the
// caller; an apply failure marks the dataset diverged and wraps
// ErrReplicaDiverged — the dataset stops serving rather than expose
// divergent state.
func (s *Server) ApplyReplicated(name string, rec store.Record) error {
	ds, ok := s.registry.get(name)
	if !ok {
		return fmt.Errorf("dataset %q not installed", name)
	}
	ds.appendMu.Lock()
	defer ds.appendMu.Unlock()
	if ds.persist != nil {
		var err error
		switch {
		case rec.Append != nil:
			err = ds.persist.log.LogAppend(rec.Append)
		case rec.Release != nil:
			err = ds.persist.log.LogRelease(rec.Release)
		}
		if err != nil {
			return fmt.Errorf("logging replicated record: %w", err)
		}
	}
	if err := applyRecord(ds, rec); err != nil {
		err = fmt.Errorf("%w: %v", ErrReplicaDiverged, err)
		if ds.repl == nil {
			ds.repl = newReplicaState(ReplicaProgress{})
		}
		ds.repl.setErr(err)
		return err
	}
	return nil
}

// DatasetVersion reports a registered dataset's current version, 0 when
// the name is not registered. The replication loop uses it for progress
// reports.
func (s *Server) DatasetVersion(name string) int64 {
	if ds, ok := s.registry.get(name); ok {
		return ds.problem.Version()
	}
	return 0
}

// SetReplicaProgress records a follower dataset's replication position
// (lag, offsets, catch-up) for /v1/datasets and /metrics.
func (s *Server) SetReplicaProgress(name string, pr ReplicaProgress) {
	if ds, ok := s.registry.get(name); ok && ds.repl != nil {
		ds.repl.setProgress(pr)
	}
}

// SetReplicaErr records a replication failure on a dataset — transient
// stream corruption keeps serving the last applied version; an error
// wrapping ErrReplicaDiverged stops the dataset from serving.
func (s *Server) SetReplicaErr(name string, err error) {
	if ds, ok := s.registry.get(name); ok && ds.repl != nil {
		ds.repl.setErr(err)
	}
}

// ---- leader HTTP handlers ----

// Replication shipping headers: every WAL/snapshot response carries the
// generation coordinates so a client can validate its cursor.
const (
	headerReplicationBase      = "X-Ckp-Replication-Base"
	headerReplicationCommitted = "X-Ckp-Replication-Committed"
	headerReplicationRecords   = "X-Ckp-Replication-Records"
	headerReplicationVersion   = "X-Ckp-Replication-Version"
)

// replicationDatasetInfo describes one replicable dataset on the leader.
type replicationDatasetInfo struct {
	Name            string `json:"name"`
	Version         int64  `json:"version"`
	Rows            int    `json:"rows"`
	SnapshotVersion int64  `json:"snapshot_version"`
	WALCommitted    int64  `json:"wal_committed"`
	WALRecords      int    `json:"wal_records"`
}

func (s *Server) handleReplicationDatasets(w http.ResponseWriter, r *http.Request) {
	out := make([]replicationDatasetInfo, 0)
	for _, info := range s.registry.list() {
		if info.ds.persist == nil {
			continue // nothing durable to ship
		}
		base, committed, records := info.ds.persist.log.Committed()
		out = append(out, replicationDatasetInfo{
			Name:            info.name,
			Version:         info.ds.problem.Version(),
			Rows:            info.ds.problem.Rows(),
			SnapshotVersion: base,
			WALCommitted:    committed,
			WALRecords:      records,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

func (s *Server) handleReplicationSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := s.registry.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("dataset %q not registered", name))
		return
	}
	if ds.persist == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("dataset %q is not persisted; nothing to replicate", name))
		return
	}
	raw, version, err := ds.persist.log.SnapshotBytes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerReplicationBase, strconv.FormatInt(version, 10))
	w.Header().Set(headerReplicationVersion, strconv.FormatInt(ds.problem.Version(), 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

// handleReplicationWAL serves raw committed WAL bytes from a byte cursor:
// GET /v1/replication/{name}/wal?from=<offset>[&base=<version>][&wait_ms=<n>].
// from=0 includes the file header. A base that no longer matches the
// leader's WAL generation — or a cursor past its committed size — is 409
// wal_superseded: compaction replaced the generation and the follower must
// re-bootstrap from a fresh snapshot. When the cursor is at the committed
// tip and wait_ms is set, the request long-polls for the next commit.
func (s *Server) handleReplicationWAL(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := s.registry.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("dataset %q not registered", name))
		return
	}
	if ds.persist == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("dataset %q is not persisted; nothing to replicate", name))
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseInt(q.Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("from %q is not a byte offset", q.Get("from")))
		return
	}
	if from < 0 || (from > 0 && from < store.WALHeaderLen) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("from %d must be 0 or past the %d-byte wal header", from, store.WALHeaderLen))
		return
	}
	var wantBase int64 = -1
	if b := q.Get("base"); b != "" {
		if wantBase, err = strconv.ParseInt(b, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("base %q is not a version", b))
			return
		}
	}
	var wait time.Duration
	if ms := q.Get("wait_ms"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("wait_ms %q is not a duration", ms))
			return
		}
		wait = time.Duration(n) * time.Millisecond
		if wait > s.cfg.ReplicationMaxWait {
			wait = s.cfg.ReplicationMaxWait
		}
	}

	dl := ds.persist.log
	deadline := time.Now().Add(wait)
	var base, committed int64
	var records int
	for {
		// Arm the notifier before reading the position: a commit landing
		// between the two closes this channel, so the select cannot miss it.
		notify := dl.CommitNotify()
		base, committed, records = dl.Committed()
		if wantBase >= 0 && wantBase != base {
			s.writeSuperseded(w, base)
			return
		}
		if from > committed {
			// The cursor points past the committed prefix: the generation
			// the client was tailing is gone (or its local state is ahead of
			// this leader). Either way the snapshot is the safe restart.
			s.writeSuperseded(w, base)
			return
		}
		if committed > from {
			break
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		timer := time.NewTimer(remaining)
		select {
		case <-notify:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return // client gone; nothing useful to write
		}
		timer.Stop()
	}

	data, committed, err := dl.ReadCommitted(from, s.cfg.ReplicationMaxBytes)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerReplicationBase, strconv.FormatInt(base, 10))
	w.Header().Set(headerReplicationCommitted, strconv.FormatInt(committed, 10))
	w.Header().Set(headerReplicationRecords, strconv.Itoa(records))
	w.Header().Set(headerReplicationVersion, strconv.FormatInt(ds.problem.Version(), 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// writeSuperseded renders the wal_superseded envelope with the leader's
// current base so clients can log what they were behind.
func (s *Server) writeSuperseded(w http.ResponseWriter, base int64) {
	body := errorBody{
		Error:  errWALSuperseded.Error(),
		Code:   "wal_superseded",
		Detail: map[string]any{"base": base},
	}
	writeJSON(w, http.StatusConflict, body)
}

// handleReadyz is the readiness gate: 503 not_ready until a follower
// finishes initial catch-up (a leader is ready as soon as it listens).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errNotReady)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ready",
		"read_only": s.cfg.ReadOnly,
	})
}

// replicationInfo is the replication block of datasetInfo on a follower.
type replicationInfo struct {
	// AppliedVersion / AppliedOffset / AppliedRecords are the follower's
	// position: dataset version applied, leader WAL byte cursor, records
	// applied since the WAL base.
	AppliedVersion int64 `json:"applied_version"`
	AppliedOffset  int64 `json:"applied_offset"`
	AppliedRecords int   `json:"applied_records"`
	// LeaderCommitted / LeaderRecords echo the leader's committed WAL
	// position from the latest fetch.
	LeaderCommitted int64 `json:"leader_committed"`
	LeaderRecords   int   `json:"leader_records"`
	// LagRecords / LagSeconds are the replication lag: records not yet
	// applied, and how long the follower has been behind (0 when caught up).
	LagRecords int     `json:"lag_records"`
	LagSeconds float64 `json:"lag_seconds"`
	// CaughtUp reports whether the follower had applied everything the
	// leader had committed as of the latest fetch.
	CaughtUp bool `json:"caught_up"`
	// PinnedVersions is how many historical versions are pinned for
	// ?version= reads.
	PinnedVersions int `json:"pinned_versions"`
	// Error surfaces the last replication failure (typed corruption or
	// divergence), empty while healthy.
	Error string `json:"error,omitempty"`
}

// describeReplication renders a dataset's replication block; nil when the
// dataset is not a replica.
func describeReplication(ds *dataset) *replicationInfo {
	if ds.repl == nil {
		return nil
	}
	pr, lagSeconds, err := ds.repl.status()
	info := &replicationInfo{
		AppliedVersion:  pr.AppliedVersion,
		AppliedOffset:   pr.AppliedOffset,
		AppliedRecords:  pr.AppliedRecords,
		LeaderCommitted: pr.LeaderCommitted,
		LeaderRecords:   pr.LeaderRecords,
		LagRecords:      pr.lagRecords(),
		LagSeconds:      lagSeconds,
		CaughtUp:        pr.CaughtUp,
	}
	if ds.pins != nil {
		info.PinnedVersions = ds.pins.count()
	}
	if err != nil {
		info.Error = err.Error()
	}
	return info
}

// parsePinnedVersion extracts the optional ?version= pin from a read
// request; 0 means "current".
func parsePinnedVersion(r *http.Request) (int64, error) {
	q := r.URL.Query().Get("version")
	if q == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(q, 10, 64)
	if err != nil || v < 1 {
		return 0, badRequest("version %q is not a positive dataset version", q)
	}
	return v, nil
}

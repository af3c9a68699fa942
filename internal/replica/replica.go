// Package replica turns a ckprivacyd process into a read replica of a
// leader daemon. A Follower discovers the leader's persisted datasets,
// bootstraps each from the leader's raw snapshot bytes, then tails the
// leader's WAL over HTTP — fetching committed bytes from a byte cursor,
// decoding them with the store's RecordScanner, and applying every record
// through the server's replay path so follower state is byte-identical to
// the leader's at every applied version. Replication is "recovery that
// never stops": the same snapshot + WAL machinery that survives a crash
// drives continuous catch-up, and a follower that persists locally
// resumes from its own store (its local WAL, written through the same
// deterministic encoder, is byte-identical to the leader's prefix — the
// local size IS the resume cursor) without re-fetching a snapshot.
//
// Failure handling: a 409 wal_superseded (the leader compacted the
// generation away) or a local persistence failure re-bootstraps from a
// fresh snapshot; a corrupt byte stream (store.ErrCorrupt) is surfaced
// and re-fetched from the last applied cursor with backoff; a
// verification failure (server.ErrReplicaDiverged) is fatal for the
// dataset — it stops replicating and refuses reads rather than serve
// divergent state.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"ckprivacy/internal/server"
	"ckprivacy/internal/store"
)

// Options configures a Follower.
type Options struct {
	// LeaderURL is the leader daemon's base URL, e.g. "http://leader:8080".
	LeaderURL string
	// Server is the local follower daemon (built with Config.ReadOnly);
	// the Follower installs snapshots and applies WAL records into it.
	Server *server.Server
	// Client is the HTTP client for leader requests. Nil means a default
	// client whose timeout comfortably exceeds the long-poll budget.
	Client *http.Client
	// PollInterval is the dataset-discovery cadence (and the floor for
	// readiness re-checks). Default 2s.
	PollInterval time.Duration
	// WaitMS is the long-poll budget sent with each WAL fetch; the leader
	// clamps it to its own maximum. Default 10000.
	WaitMS int
	// RetryMin/RetryMax bound the per-dataset exponential backoff after
	// fetch or apply failures. Defaults 100ms and 5s.
	RetryMin time.Duration
	RetryMax time.Duration
}

func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = 2 * time.Second
	}
	if o.WaitMS <= 0 {
		o.WaitMS = 10000
	}
	if o.RetryMin <= 0 {
		o.RetryMin = 100 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 5 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: time.Duration(o.WaitMS)*time.Millisecond + 15*time.Second}
	}
	return o
}

// errSuperseded is the in-process form of the leader's 409 wal_superseded.
var errSuperseded = errors.New("wal generation superseded")

// Follower replicates a leader's datasets into a local read-only server.
type Follower struct {
	opts Options

	mu    sync.Mutex
	tails map[string]*tail
	ready bool

	readyCh chan struct{} // closed when every discovered dataset caught up
	kick    chan struct{} // nudges the run loop to re-check readiness

	wg sync.WaitGroup
}

// tail is one dataset's replication loop state.
type tail struct {
	name    string
	base    int64 // WAL generation (snapshot version) being tailed
	cursor  int64 // leader WAL byte offset applied through
	applied int   // records applied since base

	mu     sync.Mutex
	caught bool  // ever fully caught up
	fatal  error // divergence; the tail has stopped
}

func (t *tail) caughtUp() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.caught || t.fatal != nil
}

// New validates options and builds a Follower; call Run to start it.
func New(opts Options) (*Follower, error) {
	if opts.LeaderURL == "" {
		return nil, fmt.Errorf("replica: LeaderURL is required")
	}
	if opts.Server == nil {
		return nil, fmt.Errorf("replica: Server is required")
	}
	if !opts.Server.ReadOnly() {
		return nil, fmt.Errorf("replica: the local server must be built with Config.ReadOnly")
	}
	if _, err := url.Parse(opts.LeaderURL); err != nil {
		return nil, fmt.Errorf("replica: bad LeaderURL: %w", err)
	}
	return &Follower{
		opts:    opts.withDefaults(),
		tails:   make(map[string]*tail),
		readyCh: make(chan struct{}),
		kick:    make(chan struct{}, 1),
	}, nil
}

// Run replicates until ctx is cancelled: it polls the leader's dataset
// list, runs one tailing loop per dataset, and marks the local server
// ready (serving /readyz 200) once every discovered dataset has completed
// initial catch-up. Returns nil on cancellation.
func (f *Follower) Run(ctx context.Context) error {
	ticker := time.NewTicker(f.opts.PollInterval)
	defer ticker.Stop()
	for {
		infos, err := f.fetchDatasets(ctx)
		if err == nil {
			for _, info := range infos {
				f.ensureTail(ctx, info)
			}
			f.maybeReady()
		}
		select {
		case <-ctx.Done():
			f.wg.Wait()
			return nil
		case <-ticker.C:
		case <-f.kick:
			f.maybeReady()
		}
	}
}

// WaitCaughtUp blocks until the follower has marked the server ready
// (every dataset discovered so far finished initial catch-up) or ctx
// expires.
func (f *Follower) WaitCaughtUp(ctx context.Context) error {
	select {
	case <-f.readyCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ensureTail starts a tailing loop for a newly discovered dataset.
func (f *Follower) ensureTail(ctx context.Context, info datasetInfo) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, exists := f.tails[info.Name]; exists {
		return
	}
	t := &tail{name: info.Name}
	f.tails[info.Name] = t
	f.wg.Add(1)
	go f.runTail(ctx, t, info.SnapshotVersion)
}

// maybeReady flips the server to ready once every known dataset has
// caught up at least once (a stopped-on-divergence tail counts: readiness
// must not wedge on a dataset that will never serve anyway).
func (f *Follower) maybeReady() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ready {
		return
	}
	for _, t := range f.tails {
		if !t.caughtUp() {
			return
		}
	}
	f.ready = true
	f.opts.Server.SetReady(true)
	close(f.readyCh)
}

// kickReady nudges the run loop to re-evaluate readiness.
func (f *Follower) kickReady() {
	select {
	case f.kick <- struct{}{}:
	default:
	}
}

// runTail is one dataset's replication loop: resume from the local store
// when its generation still matches the leader's, bootstrap from a fresh
// snapshot otherwise, then fetch-decode-apply until cancelled.
func (f *Follower) runTail(ctx context.Context, t *tail, leaderBase int64) {
	defer f.wg.Done()
	backoff := f.opts.RetryMin
	sleep := func() {
		timer := time.NewTimer(backoff)
		defer timer.Stop()
		select {
		case <-ctx.Done():
		case <-timer.C:
		}
		backoff *= 2
		if backoff > f.opts.RetryMax {
			backoff = f.opts.RetryMax
		}
	}

	needBootstrap := true
	if base, offset, records, ok := f.opts.Server.ReplicaResume(t.name); ok && base == leaderBase {
		// The local store already holds this generation: its committed WAL
		// size is the resume cursor — no snapshot transfer needed.
		t.base, t.cursor, t.applied = base, offset, records
		needBootstrap = false
	}

	for ctx.Err() == nil {
		if needBootstrap {
			if err := f.bootstrap(ctx, t); err != nil {
				if ctx.Err() != nil {
					return
				}
				sleep()
				continue
			}
			needBootstrap = false
			backoff = f.opts.RetryMin
		}
		batch, err := f.fetchWAL(ctx, t)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if errors.Is(err, errSuperseded) {
				needBootstrap = true
				continue
			}
			sleep()
			continue
		}
		if err := f.applyBatch(t, batch); err != nil {
			if errors.Is(err, server.ErrReplicaDiverged) {
				// Fatal: the server marked the dataset diverged and refuses
				// reads; replication of this dataset ends here.
				t.mu.Lock()
				t.fatal = err
				t.mu.Unlock()
				f.kickReady()
				return
			}
			f.opts.Server.SetReplicaErr(t.name, err)
			if !errors.Is(err, store.ErrCorrupt) {
				// Not a stream decode problem — most likely the local store
				// failed mid log-then-apply. Its on-disk state is suspect, so
				// rebuild it wholesale from a fresh snapshot.
				needBootstrap = true
			}
			// A corrupt stream re-fetches from the last applied cursor: every
			// applied record advanced the cursor, so nothing replays twice.
			sleep()
			continue
		}
		backoff = f.opts.RetryMin
	}
}

// bootstrap installs the dataset from the leader's current snapshot and
// positions the cursor at the head of its WAL generation.
func (f *Follower) bootstrap(ctx context.Context, t *tail) error {
	resp, err := f.get(ctx, "/v1/replication/"+url.PathEscape(t.name)+"/snapshot", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpFailure("snapshot", resp)
	}
	base, err := strconv.ParseInt(resp.Header.Get("X-Ckp-Replication-Base"), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: snapshot response lacks a base version header: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := f.opts.Server.InstallReplicaSnapshot(t.name, raw); err != nil {
		return err
	}
	t.base = base
	t.cursor = store.WALHeaderLen
	t.applied = 0
	return nil
}

// walBatch is one WAL fetch: raw bytes plus the leader's committed
// coordinates at read time.
type walBatch struct {
	data      []byte
	committed int64
	records   int
}

// fetchWAL reads committed WAL bytes from the tail's cursor, long-polling
// at the tip. A 409 maps to errSuperseded.
func (f *Follower) fetchWAL(ctx context.Context, t *tail) (walBatch, error) {
	q := url.Values{}
	q.Set("from", strconv.FormatInt(t.cursor, 10))
	q.Set("base", strconv.FormatInt(t.base, 10))
	q.Set("wait_ms", strconv.Itoa(f.opts.WaitMS))
	resp, err := f.get(ctx, "/v1/replication/"+url.PathEscape(t.name)+"/wal", q)
	if err != nil {
		return walBatch{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		io.Copy(io.Discard, resp.Body)
		return walBatch{}, errSuperseded
	default:
		return walBatch{}, httpFailure("wal", resp)
	}
	var batch walBatch
	if batch.committed, err = strconv.ParseInt(resp.Header.Get("X-Ckp-Replication-Committed"), 10, 64); err != nil {
		return walBatch{}, fmt.Errorf("replica: wal response lacks a committed header: %w", err)
	}
	if batch.records, err = strconv.Atoi(resp.Header.Get("X-Ckp-Replication-Records")); err != nil {
		return walBatch{}, fmt.Errorf("replica: wal response lacks a records header: %w", err)
	}
	if batch.data, err = io.ReadAll(resp.Body); err != nil {
		return walBatch{}, err
	}
	return batch, nil
}

// applyBatch decodes and applies every complete record in the batch,
// advancing the cursor past each applied record. A partial frame at the
// end of the batch is simply discarded — the next fetch re-reads it from
// the cursor — which is what makes arbitrary stream truncation safe.
func (f *Follower) applyBatch(t *tail, batch walBatch) error {
	sc, err := store.NewRecordScanner(t.base, t.cursor)
	if err != nil {
		return err
	}
	sc.Feed(batch.data)
	for {
		rec, ok, err := sc.Next()
		if err != nil {
			return err // ErrCorrupt: surfaced, then re-fetched from the cursor
		}
		if !ok {
			break
		}
		if err := f.opts.Server.ApplyReplicated(t.name, rec); err != nil {
			return err
		}
		t.cursor = sc.Offset()
		t.applied++
	}
	caught := t.cursor >= batch.committed
	f.opts.Server.SetReplicaProgress(t.name, server.ReplicaProgress{
		AppliedVersion:  f.appliedVersion(t.name),
		AppliedOffset:   t.cursor,
		AppliedRecords:  t.applied,
		LeaderCommitted: batch.committed,
		LeaderRecords:   batch.records,
		CaughtUp:        caught,
	})
	if caught {
		t.mu.Lock()
		first := !t.caught
		t.caught = true
		t.mu.Unlock()
		if first {
			f.kickReady()
		}
	}
	return nil
}

// appliedVersion reads the locally applied dataset version for progress
// reports; 0 when the dataset is not installed.
func (f *Follower) appliedVersion(name string) int64 {
	return f.opts.Server.DatasetVersion(name)
}

// datasetInfo mirrors the leader's replication dataset listing.
type datasetInfo struct {
	Name            string `json:"name"`
	Version         int64  `json:"version"`
	Rows            int    `json:"rows"`
	SnapshotVersion int64  `json:"snapshot_version"`
	WALCommitted    int64  `json:"wal_committed"`
	WALRecords      int    `json:"wal_records"`
}

// fetchDatasets polls the leader's replicable dataset list.
func (f *Follower) fetchDatasets(ctx context.Context) ([]datasetInfo, error) {
	resp, err := f.get(ctx, "/v1/replication/datasets", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpFailure("datasets", resp)
	}
	var body struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if err := decodeJSON(resp.Body, &body); err != nil {
		return nil, err
	}
	return body.Datasets, nil
}

// get issues one GET against the leader.
func (f *Follower) get(ctx context.Context, path string, q url.Values) (*http.Response, error) {
	u := f.opts.LeaderURL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return f.opts.Client.Do(req)
}

// decodeJSON strictly decodes one JSON document from r.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	return dec.Decode(v)
}

// httpFailure renders a non-OK leader response as an error, body included
// when small.
func httpFailure(what string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("replica: leader %s request failed: %s: %s", what, resp.Status, body)
}

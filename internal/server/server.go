// Package server is ckprivacy's serving subsystem: a long-running HTTP
// disclosure-auditing service over the paper's O(|B|·k³) MaxDisclosure
// check. It keeps a dataset registry (register a CSV table + hierarchies
// once, reference by name thereafter); each registered dataset's
// anonymize.Problem owns its warm state — bucketization cache and
// disclosure-engine memo — which every request on the dataset (disclosure,
// check, release audit, anonymize job) shares, while inline client-chosen
// groups run on one separate bounded engine. It runs lattice-search
// anonymization as asynchronous jobs on a bounded queue, enforces
// per-request k/size limits plus a global concurrency gate for
// backpressure, and exports its counters in Prometheus text format.
// stdlib net/http only.
package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataload"
	"ckprivacy/internal/store"
)

// Config tunes the service. The zero value is usable: every limit falls
// back to the documented default.
type Config struct {
	// MaxK caps the background-knowledge bound k accepted per request.
	// The DP is cubic in k, so this is the main per-request cost limit.
	// Default 16.
	MaxK int
	// MaxRows caps the size of a registered dataset. Default 200000.
	MaxRows int
	// MaxDatasets caps the registry size. Default 64.
	MaxDatasets int
	// MaxBodyBytes caps request bodies. Default 8 MiB.
	MaxBodyBytes int64
	// MaxConcurrent is the global concurrency gate: at most this many
	// compute-heavy requests (disclosure, check, estimate) run at once;
	// excess requests wait up to GateWait and are then shed with 503.
	// Default GOMAXPROCS.
	MaxConcurrent int
	// GateWait is how long a request may wait on the gate before being
	// shed. Default 2s.
	GateWait time.Duration
	// JobWorkers is the number of background anonymization jobs run
	// concurrently. Default 2.
	JobWorkers int
	// JobQueueSize bounds the pending-job queue; submissions beyond it are
	// rejected with 503. Default 16.
	JobQueueSize int
	// SearchWorkers is the per-search lattice worker budget (the library's
	// ProblemOptions.Workers) used by anonymization jobs, per-dataset
	// bucketization and Monte-Carlo estimates. Values below 1 — including
	// the zero value — mean one worker per CPU core, matching the
	// library-wide convention.
	SearchWorkers int
	// MaxReleases bounds how many published releases are retained per
	// dataset for the sequential-release audit; the oldest is evicted past
	// the bound (the audit then covers the retained window). Default 16.
	MaxReleases int
	// Store, when non-nil, makes registered datasets durable: each
	// registration writes a columnar snapshot, every append and release
	// appends a WAL record, and RecoverAll rebuilds the registry from disk
	// at boot. Nil (the default) keeps the daemon fully in-memory.
	Store *store.Manager
	// ReadOnly makes the server a follower: mutating endpoints (register,
	// append, release) are rejected with 403 code "read_only", /readyz
	// reports 503 code "not_ready" until SetReady(true), and recovered or
	// installed datasets retain pinned version snapshots for ?version=
	// reads. internal/replica drives the state via InstallReplicaSnapshot /
	// ApplyReplicated.
	ReadOnly bool
	// MaxPinnedVersions bounds how many historical version snapshots a
	// follower dataset pins for ?version= reads; the oldest is evicted past
	// the bound. Snapshots share structure, so the window is cheap.
	// Default 128.
	MaxPinnedVersions int
	// MemoMaxBytes bounds every disclosure-engine memo the daemon runs:
	// the engine serving inline client-chosen bucketizations, and each
	// registered dataset's problem-scoped engine (which serves all of that
	// dataset's disclosure, check, release-audit and anonymize traffic).
	// Worst-case resident memo memory is therefore (1 + MaxDatasets) ×
	// MemoMaxBytes — every term individually capped — instead of growing
	// with every distinct histogram ever seen. 0 means
	// core.DefaultMemoMaxBytes; negative disables the bound.
	MemoMaxBytes int64
}

// Fixed limits: no deployment tunes them, so they are not Config fields.
const (
	// maxSamples caps a Monte-Carlo estimate request's sample budget.
	maxSamples = 1000000
	// jobHistory bounds how many jobs (finished ones included, kept for
	// polling) are retained; the oldest terminal jobs are evicted first.
	jobHistory = 256
	// replicationMaxBytes caps how many WAL bytes one replication fetch
	// returns (4 MiB), except that a fetch always returns at least the
	// whole record at its cursor, however large.
	replicationMaxBytes = 4 << 20
	// replicationMaxWait caps how long a WAL fetch may long-poll for the
	// next commit (the wait_ms query parameter is clamped to it).
	replicationMaxWait = 30 * time.Second
)

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxK <= 0 {
		c.MaxK = 16
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 200000
	}
	if c.MaxDatasets <= 0 {
		c.MaxDatasets = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.GateWait <= 0 {
		c.GateWait = 2 * time.Second
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobQueueSize <= 0 {
		c.JobQueueSize = 16
	}
	if c.MaxReleases <= 0 {
		c.MaxReleases = 16
	}
	if c.MaxPinnedVersions <= 0 {
		c.MaxPinnedVersions = 128
	}
	// SearchWorkers is passed through: anonymize.Options already treats
	// values below 1 as one per CPU core. MemoMaxBytes is passed through:
	// core.NewEngineWithConfig resolves 0 to its default and treats
	// negatives as unbounded.
	return c
}

// problemOptions is the anonymize.Options every registered dataset's
// Problem is built with.
func (c Config) problemOptions() anonymize.Options {
	o := anonymize.DefaultOptions()
	o.Workers = c.SearchWorkers
	o.MemoMaxBytes = c.MemoMaxBytes
	return o
}

// Server is the resident service: inline engine, dataset registry, job
// manager and metrics, wired onto a method-pattern ServeMux.
type Server struct {
	cfg      Config
	inline   *core.Engine
	registry *registry
	jobs     *jobManager
	metrics  *metrics
	gate     chan struct{}
	start    time.Time
	mux      *http.ServeMux
	patterns []string
	// store is the optional durable backend (cfg.Store); bootSeconds is the
	// daemon-reported startup duration (0 until SetBootDuration).
	store       *store.Manager
	bootSeconds atomic.Value // float64
	// ready gates /readyz: true from birth on a leader, flipped by the
	// replication loop after initial catch-up on a follower.
	ready atomic.Bool
}

// New builds a Server and starts its job workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		// Inline (client-chosen) bucketizations get their own bounded memo:
		// they still warm across requests, but hostile or high-cardinality
		// inline traffic can neither grow resident memory without limit nor
		// evict the registered datasets' warm entries.
		inline:   core.NewEngineWithConfig(core.EngineConfig{MemoMaxBytes: cfg.MemoMaxBytes}),
		registry: newRegistry(cfg.MaxDatasets),
		metrics:  newMetrics(),
		gate:     make(chan struct{}, cfg.MaxConcurrent),
		start:    time.Now(),
		mux:      http.NewServeMux(),
		store:    cfg.Store,
	}
	s.jobs = newJobManager(cfg.JobWorkers, cfg.JobQueueSize, jobHistory, s.metrics)
	s.ready.Store(!cfg.ReadOnly)
	s.routes()
	return s
}

// InlineEngine exposes the bounded engine serving inline (client-chosen)
// bucketizations (for tests and embedding callers).
func (s *Server) InlineEngine() *core.Engine { return s.inline }

// engineFor is the disclosure engine a disclosure or check request runs
// on: the dataset's own problem-scoped engine, which its anonymize jobs
// and release audits share, or the inline engine when ds is nil (inline
// groups).
func (s *Server) engineFor(ds *dataset) *core.Engine {
	if ds == nil {
		return s.inline
	}
	return ds.problem.Engine()
}

// Register adds a bundle to the dataset registry programmatically — the
// daemon's -preload path and embedding callers use this; HTTP clients use
// POST /v1/datasets. Both run the same registration: with a durable store
// configured the snapshot is written, the WAL opened, and the
// registration backed out if the write fails.
func (s *Server) Register(name string, b *dataload.Bundle) error {
	_, err := s.register(name, b)
	return err
}

// register adds a bundle to the registry, then persists its first
// snapshot and WAL. Registration is all-or-nothing: a dataset that cannot
// be persisted is backed out, so a restart can never silently drop a
// dataset its caller was told exists. A duplicate name wraps
// ErrAlreadyRegistered; a store failure is a *persistError.
func (s *Server) register(name string, b *dataload.Bundle) (*dataset, error) {
	ds, err := s.registry.add(name, b, s.cfg.problemOptions(), s.cfg.MaxReleases)
	if err != nil {
		return nil, err
	}
	if err := s.persistNewDataset(name, ds); err != nil {
		s.registry.remove(name)
		return nil, &persistError{err: err}
	}
	return ds, nil
}

// SetBootDuration records how long the daemon's startup (store recovery
// included) took; exported as the ckprivacyd_boot_seconds gauge.
func (s *Server) SetBootDuration(d time.Duration) {
	s.bootSeconds.Store(d.Seconds())
}

// Patterns returns every method-qualified route pattern the server
// registered on its mux, e.g. "POST /v1/disclosure". The OpenAPI coverage
// test asserts each appears in the served spec.
func (s *Server) Patterns() []string { return append([]string(nil), s.patterns...) }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the job queue (in-flight and queued jobs finish) and
// stops the job workers. If ctx expires first, running jobs are cancelled
// and Shutdown returns ctx.Err() once the workers exit. The HTTP listener
// itself is the caller's to close (http.Server.Shutdown); cmd/ckprivacyd
// sequences both on SIGTERM.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.jobs.shutdown(ctx)
}

// routes installs every endpoint, instrumented for metrics.
func (s *Server) routes() {
	handle := func(pattern string, h http.HandlerFunc) {
		s.patterns = append(s.patterns, pattern)
		s.mux.Handle(pattern, s.metrics.instrument(pattern, h))
	}
	handle("POST /v1/datasets", s.handleRegisterDataset)
	handle("GET /v1/datasets", s.handleListDatasets)
	handle("GET /v1/datasets/{name}", s.handleGetDataset)
	handle("POST /v1/datasets/{name}/rows", s.handleAppendRows)
	handle("POST /v1/datasets/{name}/releases", s.handleCreateRelease)
	handle("GET /v1/datasets/{name}/releases", s.handleListReleases)
	handle("POST /v1/disclosure", s.handleDisclosure)
	handle("POST /v1/check", s.handleCheck)
	handle("POST /v1/estimate", s.handleEstimate)
	handle("POST /v1/anonymize", s.handleAnonymize)
	handle("GET /v1/jobs/{id}", s.handleGetJob)
	handle("DELETE /v1/jobs/{id}", s.handleCancelJob)
	handle("GET /v1/replication/datasets", s.handleReplicationDatasets)
	handle("GET /v1/replication/{name}/snapshot", s.handleReplicationSnapshot)
	handle("GET /v1/replication/{name}/wal", s.handleReplicationWAL)
	handle("GET /v1/openapi.yaml", s.handleOpenAPI)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /readyz", s.handleReadyz)
	handle("GET /metrics", s.handleMetrics)
}

// acquireGate claims a slot on the global concurrency gate: immediately
// if one is free, otherwise waiting up to GateWait before shedding the
// request with 503 + Retry-After. This is the backpressure mechanism that
// keeps a flood of expensive DP requests from piling onto the CPU
// unboundedly. Handlers call it only after the request body is fully
// decoded and validated, so slow-loris bodies cannot wedge compute slots.
// On success the caller must invoke the returned release.
func (s *Server) acquireGate(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	select {
	case s.gate <- struct{}{}:
	default:
		timer := time.NewTimer(s.cfg.GateWait)
		defer timer.Stop()
		select {
		case s.gate <- struct{}{}:
		case <-timer.C:
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("server saturated: %d computations in flight", s.cfg.MaxConcurrent))
			return nil, false
		case <-r.Context().Done():
			writeError(w, statusClientClosedRequest, r.Context().Err())
			return nil, false
		}
	}
	return func() { <-s.gate }, true
}

// statusClientClosedRequest is nginx's non-standard 499 (client closed
// request); used when a request dies waiting on the gate.
const statusClientClosedRequest = 499

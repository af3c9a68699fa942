package server

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
)

// metrics collects per-endpoint request counts and latency sums plus job
// counters, and renders them — together with the live cache and queue
// gauges read off the server — in Prometheus text exposition format. Only
// the stdlib is used; the small fixed label space keeps a mutex-protected
// map cheap enough for the request path.
type metrics struct {
	mu sync.Mutex
	// requests counts finished requests by (route pattern, status code).
	requests map[requestKey]uint64
	// latencySum/latencyCount accumulate seconds by route pattern.
	latencySum   map[string]float64
	latencyCount map[string]uint64
	// jobs counts job submissions by terminal state ("queued" counts
	// submissions; "done", "failed", "cancelled" count completions).
	jobs map[string]uint64
}

type requestKey struct {
	pattern string
	code    int
}

func newMetrics() *metrics {
	return &metrics{
		requests:     make(map[requestKey]uint64),
		latencySum:   make(map[string]float64),
		latencyCount: make(map[string]uint64),
		jobs:         make(map[string]uint64),
	}
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler to record count and latency under the route
// pattern label.
func (m *metrics) instrument(pattern string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		begin := time.Now()
		h.ServeHTTP(rec, r)
		elapsed := time.Since(begin).Seconds()
		m.mu.Lock()
		m.requests[requestKey{pattern, rec.code}]++
		m.latencySum[pattern] += elapsed
		m.latencyCount[pattern]++
		m.mu.Unlock()
	})
}

// countJob bumps one job-state counter.
func (m *metrics) countJob(state string) {
	m.mu.Lock()
	m.jobs[state]++
	m.mu.Unlock()
}

// expo writes the Prometheus text exposition format. It owns the syntax —
// the HELP/TYPE header, %q-quoted label values and %v sample values (%d
// for integers, %g for floats) — so a family costs one header call plus
// one call per series.
type expo struct{ w io.Writer }

// header opens a family.
func (e expo) header(name, typ, help string) {
	fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one series; labels are name, value pairs.
func (e expo) sample(name string, v any, labels ...string) {
	io.WriteString(e.w, name)
	for i := 0; i < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(e.w, "%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		io.WriteString(e.w, "}")
	}
	fmt.Fprintf(e.w, " %v\n", v)
}

// single writes a family with one unlabelled series.
func (e expo) single(name, typ, help string, v any) {
	e.header(name, typ, help)
	e.sample(name, v)
}

// perDataset writes a family with one series per dataset, labelled
// dataset="<name>".
func (e expo) perDataset(name, typ, help string, infos []namedDataset, v func(*dataset) any) {
	e.header(name, typ, help)
	for _, info := range infos {
		e.sample(name, v(info.ds), "dataset", info.name)
	}
}

// writeTo renders the metrics for the /metrics endpoint. Families are
// sorted so the output is deterministic (and therefore testable).
func (m *metrics) writeTo(w io.Writer, s *Server) {
	e := expo{w}
	m.mu.Lock()
	reqKeys := slices.SortedFunc(maps.Keys(m.requests), func(a, b requestKey) int {
		return cmp.Or(cmp.Compare(a.pattern, b.pattern), cmp.Compare(a.code, b.code))
	})
	e.header("ckprivacyd_requests_total", "counter", "Finished HTTP requests by route and status code.")
	for _, k := range reqKeys {
		e.sample("ckprivacyd_requests_total", m.requests[k], "route", k.pattern, "code", strconv.Itoa(k.code))
	}
	e.header("ckprivacyd_request_seconds", "summary", "Summed wall-clock request latency by route.")
	for _, k := range slices.Sorted(maps.Keys(m.latencySum)) {
		e.sample("ckprivacyd_request_seconds_sum", m.latencySum[k], "route", k)
		e.sample("ckprivacyd_request_seconds_count", m.latencyCount[k], "route", k)
	}
	e.header("ckprivacyd_jobs_total", "counter", "Anonymization jobs by lifecycle event.")
	for _, k := range slices.Sorted(maps.Keys(m.jobs)) {
		e.sample("ckprivacyd_jobs_total", m.jobs[k], "event", k)
	}
	m.mu.Unlock()

	// Live gauges read outside the metrics lock: engine counters,
	// per-dataset bucketization caches, queue depth. Engine stats are
	// atomic reads, so a scrape cannot stall DP workers mid-request.
	infos := s.registry.list()
	var sum core.CacheStats // over the registered datasets' engines
	for _, info := range infos {
		st := info.ds.problem.Engine().Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
	}
	e.single("ckprivacyd_engine_memo_hits_total", "counter", "MINIMIZE1 rows the disclosure engines read from buckets that already held them, summed over the registered datasets' engines.", sum.Hits)
	e.single("ckprivacyd_engine_memo_misses_total", "counter", "MINIMIZE1 rows the disclosure engines built and published on buckets, summed over the registered datasets' engines.", sum.Misses)

	e.perDataset("ckprivacyd_dataset_cache_hits_total", "counter", "Bucketization-cache hits by dataset.", infos,
		func(ds *dataset) any { return ds.problem.CacheStats().Hits })
	e.perDataset("ckprivacyd_dataset_cache_misses_total", "counter", "Bucketization-cache misses by dataset.", infos,
		func(ds *dataset) any { return ds.problem.CacheStats().Misses })
	e.perDataset("ckprivacyd_dataset_cache_entries", "gauge", "Cached bucketizations by dataset, one per complete level vector (an Incognito subset node shares the entry of the full node it induces).", infos,
		func(ds *dataset) any { return ds.problem.CacheStats().Entries })
	e.perDataset("ckprivacyd_dataset_planned_sweeps_total", "counter", "Planned lattice sweeps executed by the dataset's sweep planner.", infos,
		func(ds *dataset) any { return ds.problem.SweepStats().Sweeps })
	e.header("ckprivacyd_dataset_planned_nodes_total", "counter", "Derivation-DAG nodes scheduled by planned sweeps, by how each was materialized (base_scan = full row scan at a DAG root, coarsened = derived from a parent through a pooled arena, reused = taken from another sweep that claimed the same level vector first).")
	for _, info := range infos {
		ss := info.ds.problem.SweepStats()
		e.sample("ckprivacyd_dataset_planned_nodes_total", ss.BaseScans, "dataset", info.name, "path", "base_scan")
		e.sample("ckprivacyd_dataset_planned_nodes_total", ss.Coarsened, "dataset", info.name, "path", "coarsened")
		e.sample("ckprivacyd_dataset_planned_nodes_total", ss.Reused, "dataset", info.name, "path", "reused")
	}
	e.header("ckprivacyd_dataset_planned_buckets_total", "counter", "Bucket counts summed over planner-materialized nodes, predicted by the cost model vs actually produced (ratio near 1 means good parent choices).")
	for _, info := range infos {
		ss := info.ds.problem.SweepStats()
		e.sample("ckprivacyd_dataset_planned_buckets_total", ss.PredictedBuckets, "dataset", info.name, "kind", "predicted")
		e.sample("ckprivacyd_dataset_planned_buckets_total", ss.ActualBuckets, "dataset", info.name, "kind", "actual")
	}
	arenaGets, arenaReuses := bucket.ArenaStats()
	e.single("ckprivacyd_arena_gets_total", "counter", "Scratch arenas borrowed from the process-wide coarsening pool.", arenaGets)
	e.single("ckprivacyd_arena_reuses_total", "counter", "Arena borrows satisfied without a fresh allocation (gets minus allocs).", arenaReuses)
	e.perDataset("ckprivacyd_dataset_version", "gauge", "Current dataset version (1 at registration, +1 per append).", infos,
		func(ds *dataset) any { return ds.problem.Version() })
	e.perDataset("ckprivacyd_dataset_rows", "gauge", "Row count of the current dataset version.", infos,
		func(ds *dataset) any { return ds.problem.Rows() })
	e.perDataset("ckprivacyd_dataset_releases", "gauge", "Retained recorded releases per dataset.", infos,
		func(ds *dataset) any { rs, _ := ds.releases.snapshot(); return len(rs) })
	e.header("ckprivacyd_dataset_recovered", "gauge", "How each dataset entered this process (cold, snapshot or wal_replay); always 1.")
	for _, info := range infos {
		e.sample("ckprivacyd_dataset_recovered", 1, "dataset", info.name, "mode", info.ds.recovered)
	}

	// Durability gauges for persisted datasets: live WAL size, compaction
	// recency, boot replay cost and fsync latency.
	persisted := slices.DeleteFunc(slices.Clone(infos), func(info namedDataset) bool { return info.ds.persist == nil })
	if len(persisted) > 0 {
		e.perDataset("ckprivacyd_wal_bytes", "gauge", "Bytes in the dataset's live WAL segment (header included).", persisted,
			func(ds *dataset) any { return ds.persist.log.Bytes() })
		e.perDataset("ckprivacyd_wal_records", "gauge", "Append/release records in the dataset's live WAL segment.", persisted,
			func(ds *dataset) any { return ds.persist.log.Records() })
		e.perDataset("ckprivacyd_last_compaction_timestamp_seconds", "gauge", "Unix time of the dataset's last WAL compaction; 0 if never compacted in this process.", persisted,
			func(ds *dataset) any {
				var ts float64
				if lc := ds.persist.log.LastCompaction(); !lc.IsZero() {
					ts = float64(lc.UnixNano()) / 1e9
				}
				return ts
			})
		e.perDataset("ckprivacyd_replay_seconds", "gauge", "Boot recovery time per dataset (snapshot decode + WAL replay); 0 for datasets registered in this process.", persisted,
			func(ds *dataset) any { return ds.persist.replaySeconds })
		e.header("ckprivacyd_wal_fsync_seconds", "summary", "Summed WAL fsync latency per dataset (count is fsyncs performed; both 0 when -wal-fsync is off).")
		for _, info := range persisted {
			n, total := info.ds.persist.log.FsyncStats()
			e.sample("ckprivacyd_wal_fsync_seconds_sum", total.Seconds(), "dataset", info.name)
			e.sample("ckprivacyd_wal_fsync_seconds_count", n, "dataset", info.name)
		}
	}

	// Replication gauges for follower datasets: applied position, leader
	// position and the resulting lag.
	replicas := slices.DeleteFunc(slices.Clone(infos), func(info namedDataset) bool { return info.ds.repl == nil })
	if len(replicas) > 0 {
		progress := func(ds *dataset) ReplicaProgress { pr, _, _ := ds.repl.status(); return pr }
		e.perDataset("ckprivacyd_replica_lag_records", "gauge", "WAL records the leader has committed that this follower has not applied.", replicas,
			func(ds *dataset) any { return progress(ds).lagRecords() })
		e.perDataset("ckprivacyd_replica_lag_seconds", "gauge", "How long the follower has been behind the leader; 0 when caught up.", replicas,
			func(ds *dataset) any { _, lag, _ := ds.repl.status(); return lag })
		e.perDataset("ckprivacyd_replica_applied_version", "gauge", "Dataset version the follower has applied.", replicas,
			func(ds *dataset) any { return progress(ds).AppliedVersion })
		e.perDataset("ckprivacyd_replica_applied_offset", "gauge", "Leader WAL byte offset the follower has applied through.", replicas,
			func(ds *dataset) any { return progress(ds).AppliedOffset })
		e.perDataset("ckprivacyd_replica_leader_offset", "gauge", "Leader committed WAL byte size as of the follower's latest fetch.", replicas,
			func(ds *dataset) any { return progress(ds).LeaderCommitted })
	}
	if s.cfg.ReadOnly {
		ready := 0
		if s.ready.Load() {
			ready = 1
		}
		e.single("ckprivacyd_replica_ready", "gauge", "Whether the follower has completed initial catch-up (mirrors /readyz).", ready)
	}

	if boot, ok := s.bootSeconds.Load().(float64); ok {
		e.single("ckprivacyd_boot_seconds", "gauge", "Daemon startup duration (store recovery and preloads included).", boot)
	}
	e.single("ckprivacyd_datasets_registered", "gauge", "Registered datasets.", len(infos))
	e.single("ckprivacyd_jobs_queue_depth", "gauge", "Jobs waiting in the bounded queue.", s.jobs.queueDepth())
	e.single("ckprivacyd_uptime_seconds", "gauge", "Seconds since the server started.", time.Since(s.start).Seconds())
}

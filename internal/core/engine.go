package core

import "sync/atomic"

// Engine computes maximum disclosure. It holds no DP state of its own:
// a MINIMIZE1 row depends only on a bucket's histogram, so the row pass
// (rowPass) reads each histogram class's row from the class's first
// bucket, where an earlier call published it, and builds and publishes
// only a missing or too-short one. A bucket shared across bucketizations
// (an append's untouched buckets, a coarsening's rekeyed ones) brings its
// row along, which implements the paper's §3.3.3 remark about
// incremental recomputation when bucketizations share buckets, and row
// memory lives and dies with the buckets that hold it.
//
// An Engine only counts: how many rows its calls read from buckets and
// how many they built. Any engine computes the same answers over the
// same buckets, and an Engine is safe for concurrent use.
type Engine struct {
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewEngine returns an engine whose counters are zero.
func NewEngine() *Engine { return &Engine{} }

// CacheStats is a point-in-time snapshot of an engine's row counters; the
// serving layer exports it on /metrics.
type CacheStats struct {
	// Hits counts MINIMIZE1 rows read from a bucket that already held
	// one wide enough.
	Hits uint64
	// Misses counts rows built, a row grown for a larger k included.
	// Workers racing on one missing row may each build it, and each
	// counts a miss.
	Misses uint64
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() CacheStats {
	return CacheStats{Hits: e.hits.Load(), Misses: e.misses.Load()}
}

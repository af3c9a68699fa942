package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"ckprivacy/internal/bucket"
)

// DefaultMemoMaxBytes is the default capacity bound of an Engine's
// MINIMIZE1 memo: roughly 64 MiB of accounted entry bytes. A memoized row
// costs on the order of 100–300 bytes, so the default holds a few hundred
// thousand distinct histograms — far more than any one dataset's lattice
// produces, while keeping a long-lived daemon serving an open-ended stream
// of datasets at a bounded resident size.
const DefaultMemoMaxBytes = 64 << 20

// maxMemoShards caps the memo's shard count, and minShardBytes is the
// least budget memoShards leaves each shard of a bounded memo. Shard counts
// are powers of two so the shard index is a mask of the key fingerprint.
const (
	maxMemoShards = 32
	minShardBytes = 64 << 10
)

// EngineConfig tunes an Engine's memo.
type EngineConfig struct {
	// MemoMaxBytes bounds the total accounted size of memoized MINIMIZE1
	// rows across all shards. Zero means DefaultMemoMaxBytes; a negative
	// value disables the bound entirely (the pre-bound behavior, useful for
	// one-shot batch runs and A/B tests). The shard count follows from it:
	// 32 shards, fewer below 2 MiB so each keeps at least 64 KiB.
	MemoMaxBytes int64
}

// Engine computes maximum disclosure, memoizing MINIMIZE1 rows by bucket
// histogram. Buckets with equal sensitive-value histograms share all DP
// state, and the cache persists across calls, implementing the paper's
// §3.3.3 remark about incremental recomputation when bucketizations share
// buckets (as the Figure 6 sweep over 72 generalizations heavily does).
//
// A memo entry holds one histogram's row u[0..K], u[j] being MINIMIZE1
// with j atoms, built from one DP table whose states every j shares (see
// m1Row). A request for a longer row recomputes it at the larger K and
// replaces the resident one, so each histogram costs one lookup per
// disclosure call whatever its k.
//
// The memo is sharded up to 32 ways (memoShards) and keyed by
// bucket.HistogramHash, a 64-bit fingerprint of the histogram that
// an indexed bucketization stores per histogram class, so the hot path
// neither hashes nor materializes signature strings. Each shard is
// byte-accounted against an equal slice of MemoMaxBytes and evicted with a
// CLOCK second-chance policy, so a long-lived engine serving many datasets
// plateaus instead of leaking.
// Fingerprint hits verify the stored histogram, so a (cryptographically
// unlikely) 64-bit collision degrades to an uncached computation, never a
// wrong value.
//
// An Engine is safe for concurrent use. A miss builds its row outside
// every lock and then stores it under its shard's write lock, so workers
// racing on one missing row may each build (and count) it; the store keeps
// the longest of their rows.
type Engine struct {
	shards    []memoShard
	shardMask uint64
	// perShardMax is the byte budget of one shard; <= 0 means unbounded.
	perShardMax int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// memoEntry is one resident memo slot. The key is immutable; row is
// guarded by the shard lock and replaced, never written, when a longer
// row is stored. ref is atomic so the hit path can set it after dropping
// the shard's read lock.
type memoEntry struct {
	fp   uint64
	hist []int     // owned copy of the key histogram, for collision verification
	row  []float64 // u[0..K] with u[0] = 1
	ref  atomic.Bool
}

// memoEntryOverhead approximates the fixed per-entry heap cost beyond the
// two slices: the entry struct, its map bucket share and its ring slot.
const memoEntryOverhead = 96

// entryCost is the accounted size of an entry holding a histogram of hl
// counts and a row of rl values.
func entryCost(hl, rl int) int64 { return memoEntryOverhead + 8*int64(hl+rl) }

func (me *memoEntry) cost() int64 { return entryCost(len(me.hist), len(me.row)) }

// memoShard is one lock domain of the memo: a flat fingerprint-keyed map
// and a CLOCK ring over its resident entries. Hits take only the read lock
// (the CLOCK bit is atomic), so concurrent workers hammering the same hot
// entries — the level-wise searches' steady state — never serialize;
// inserts, growth and eviction take the write lock.
type memoShard struct {
	mu      sync.RWMutex
	entries map[uint64]*memoEntry
	ring    []*memoEntry
	hand    int

	// bytes/count are atomics so Stats reads them without taking the shard
	// lock (a /metrics scrape must not stall DP workers).
	bytes atomic.Int64
	count atomic.Int64
}

// NewEngine returns an empty engine with the default memo bound.
func NewEngine() *Engine {
	return NewEngineWithConfig(EngineConfig{})
}

// NewEngineWithConfig returns an empty engine with the given memo bound.
func NewEngineWithConfig(cfg EngineConfig) *Engine {
	maxBytes := cfg.MemoMaxBytes
	if maxBytes == 0 {
		maxBytes = DefaultMemoMaxBytes
	}
	n := memoShards(maxBytes)
	e := &Engine{
		shards:    make([]memoShard, n),
		shardMask: uint64(n - 1),
	}
	if maxBytes > 0 {
		e.perShardMax = maxBytes / int64(n)
	}
	for i := range e.shards {
		e.shards[i].entries = make(map[uint64]*memoEntry)
	}
	return e
}

// memoShards is the shard count of a memo bounded at maxBytes (<= 0:
// unbounded): the largest power of two up to maxMemoShards that leaves
// each shard at least minShardBytes, and 1 below that. More shards cut
// lock contention; fewer keep a small bound's shards big enough to hold
// the entries they would otherwise refuse as larger than a shard.
func memoShards(maxBytes int64) int {
	n := maxMemoShards
	for maxBytes > 0 && n > 1 && maxBytes/int64(n) < minShardBytes {
		n >>= 1
	}
	return n
}

// CacheStats is a point-in-time snapshot of memo effectiveness and
// residency; the serving layer exports it on /metrics.
type CacheStats struct {
	// Hits counts MINIMIZE1 row lookups answered from the memo.
	Hits uint64
	// Misses counts row lookups that had to run the DP, a row grown for a
	// larger k included. Workers racing on one missing row each build it,
	// and each counts a miss.
	Misses uint64
	// Evictions counts entries dropped by the CLOCK policy to stay under
	// the configured byte bound.
	Evictions uint64
	// Bytes is the accounted resident size of the memo.
	Bytes int64
	// Entries is the number of resident memo entries, one per histogram.
	Entries int
}

// row returns a MINIMIZE1 row of hist at least width long — u[j] for
// j < width, u[0] = 1 — computing and caching it as needed. fp is
// bucket.HistogramHash(hist). A resident row at least width long is a hit
// and needs only the shard's read lock. Otherwise the caller builds the
// row at width outside every lock, so a panicking build strands nothing,
// and stores it; storeLocked settles a race with another store. The
// returned row may be longer than width and is shared: callers must not
// write it.
func (e *Engine) row(fp uint64, hist []int, width int) []float64 {
	s := &e.shards[fp&e.shardMask]
	s.mu.RLock()
	me := s.entries[fp]
	var row []float64
	if me != nil {
		row = me.row
	}
	s.mu.RUnlock()
	if me != nil && len(row) >= width && slices.Equal(me.hist, hist) {
		me.ref.Store(true)
		e.hits.Add(1)
		return row
	}

	e.misses.Add(1)
	row = m1Row(hist, width-1)
	s.mu.Lock()
	defer s.mu.Unlock()
	e.storeLocked(s, fp, hist, row)
	return row
}

// storeLocked makes row the resident row of hist: it inserts a new entry,
// or gives a resident entry with a shorter row the longer one in place
// (the entry keeps its CLOCK ring slot). A resident row at least as long
// is kept, and so is an entry under the same fingerprint with another
// histogram (a 64-bit collision: the caller's row goes uncached rather
// than thrash the resident one). It evicts other entries via CLOCK until
// the shard fits its budget; an entry that alone would exceed the budget
// is not stored, and a resident entry then keeps its shorter row. The
// caller holds s.mu.
func (e *Engine) storeLocked(s *memoShard, fp uint64, hist []int, row []float64) {
	me := s.entries[fp]
	if me != nil && (len(me.row) >= len(row) || !slices.Equal(me.hist, hist)) {
		return
	}
	cost := entryCost(len(hist), len(row))
	grow, others := cost, len(s.ring)
	if me != nil {
		grow -= me.cost()
		others--
	}
	if e.perShardMax > 0 {
		if cost > e.perShardMax {
			// An entry larger than a whole shard's budget would evict
			// everything and immediately be evicted itself; skip caching.
			return
		}
		for ; s.bytes.Load()+grow > e.perShardMax && others > 0; others-- {
			e.evictOneLocked(s, me)
		}
	}
	if me != nil {
		me.row = row
		me.ref.Store(true)
		s.bytes.Add(grow)
		return
	}
	me = &memoEntry{fp: fp, hist: append([]int(nil), hist...), row: row}
	me.ref.Store(true)
	s.ring = append(s.ring, me)
	s.entries[fp] = me
	s.bytes.Add(cost)
	s.count.Add(1)
}

// evictOneLocked advances the CLOCK hand, clearing second-chance bits,
// until it drops one entry other than keep (nil keeps none). The caller
// holds s.mu and guarantees the ring holds such an entry.
func (e *Engine) evictOneLocked(s *memoShard, keep *memoEntry) {
	for {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		me := s.ring[s.hand]
		if me == keep || me.ref.Load() {
			me.ref.Store(false)
			s.hand++
			continue
		}
		last := len(s.ring) - 1
		s.ring[s.hand] = s.ring[last]
		s.ring[last] = nil
		s.ring = s.ring[:last]
		delete(s.entries, me.fp)
		s.bytes.Add(-me.cost())
		s.count.Add(-1)
		e.evictions.Add(1)
		return
	}
}

// Stats snapshots the memo's counters and residency gauges without taking
// any shard lock.
func (e *Engine) Stats() CacheStats {
	st := CacheStats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Evictions: e.evictions.Load(),
	}
	for i := range e.shards {
		st.Bytes += e.shards[i].bytes.Load()
		st.Entries += int(e.shards[i].count.Load())
	}
	return st
}

// bucketView is one bucket's per-call state (histogram, sizes) for the cold
// paths that read per-bucket fields: witness reconstruction, targeted
// disclosure and exact arithmetic. The kernel's row pass reads histogram
// classes instead (rowPass).
type bucketView struct {
	hist  []int
	n     int
	top   int
	index int
	b     *bucket.Bucket
}

// ratio is n/top, the factor 1/Pr(A | B) of placing A in this bucket.
func (v *bucketView) ratio() float64 { return float64(v.n) / float64(v.top) }

func makeViews(bz *bucket.Bucketization) []bucketView {
	views := make([]bucketView, len(bz.Buckets))
	for i, b := range bz.Buckets {
		views[i] = bucketView{
			hist:  b.Histogram(),
			n:     b.Size(),
			top:   b.TopCount(),
			index: i,
			b:     b,
		}
	}
	return views
}

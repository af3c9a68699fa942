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

// defaultMemoShards is the default shard count. Must be a power of two so
// the shard index is a mask of the key fingerprint.
const defaultMemoShards = 32

// EngineConfig tunes an Engine's memo.
type EngineConfig struct {
	// MemoMaxBytes bounds the total accounted size of memoized MINIMIZE1
	// rows across all shards. Zero means DefaultMemoMaxBytes; a negative
	// value disables the bound entirely (the pre-bound behavior, useful for
	// one-shot batch runs and A/B tests).
	MemoMaxBytes int64
	// Shards is the shard count, rounded up to a power of two. Zero means
	// defaultMemoShards. More shards cut lock contention at a small fixed
	// memory cost.
	Shards int
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
// The memo is sharded N ways and keyed by a 64-bit FNV-1a fingerprint of
// the histogram — the hot path never materializes signature strings. Each
// shard is byte-accounted against a per-shard slice of MemoMaxBytes and
// evicted with a CLOCK second-chance policy, so a long-lived engine
// serving many datasets plateaus instead of leaking. Fingerprint hits
// verify the stored histogram, so a (cryptographically unlikely) 64-bit
// collision degrades to an uncached computation, never a wrong value.
//
// An Engine is safe for concurrent use. Workers racing on the same missing
// row deduplicate in flight: the first computes, the rest wait and share
// the result, so each distinct row is computed (and counted as a miss)
// once.
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

// memoCall is an in-flight row computation other workers can wait on.
type memoCall struct {
	wg    sync.WaitGroup
	hist  []int
	width int
	row   []float64
	// panicked marks a computation that died before producing row; waiters
	// then compute for themselves (and propagate the same panic on their
	// own goroutine, confining it per-caller as the pre-dedup memo did).
	panicked bool
}

// memoShard is one lock domain of the memo: a flat fingerprint-keyed map,
// a CLOCK ring over its resident entries, and the in-flight table. Hits
// take only the read lock (the CLOCK bit is atomic), so concurrent workers
// hammering the same hot entries — the level-wise searches' steady state —
// never serialize; misses, inserts, growth and eviction take the write
// lock.
type memoShard struct {
	mu       sync.RWMutex
	entries  map[uint64]*memoEntry
	inflight map[uint64]*memoCall
	ring     []*memoEntry
	hand     int

	// bytes/count are atomics so Stats and CacheSize read them without
	// taking the shard lock (a /metrics scrape must not stall DP workers).
	bytes atomic.Int64
	count atomic.Int64
}

// NewEngine returns an empty engine with the default memo bound.
func NewEngine() *Engine {
	return NewEngineWithConfig(EngineConfig{})
}

// NewEngineWithConfig returns an empty engine with the given memo bound and
// shard count.
func NewEngineWithConfig(cfg EngineConfig) *Engine {
	shards := cfg.Shards
	if shards <= 0 {
		shards = defaultMemoShards
	}
	// Round up to a power of two for mask indexing.
	n := 1
	for n < shards {
		n <<= 1
	}
	maxBytes := cfg.MemoMaxBytes
	if maxBytes == 0 {
		maxBytes = DefaultMemoMaxBytes
	}
	e := &Engine{
		shards:    make([]memoShard, n),
		shardMask: uint64(n - 1),
	}
	if maxBytes > 0 {
		e.perShardMax = maxBytes / int64(n)
		if e.perShardMax < 1 {
			e.perShardMax = 1
		}
	}
	for i := range e.shards {
		e.shards[i].entries = make(map[uint64]*memoEntry)
		e.shards[i].inflight = make(map[uint64]*memoCall)
	}
	return e
}

// FNV-1a parameters of the memo's 64-bit fingerprint.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord mixes v into the FNV-1a state h as a fixed eight-byte word, so
// histograms of different lengths or counts never alias by concatenation.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// histPrefix is the memo key of a histogram: 64-bit FNV-1a over its
// counts. The MINIMIZE2 row pass also keys its per-call histogram dedupe
// with it, so each histogram is hashed once per call.
func histPrefix(hist []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range hist {
		h = fnvWord(h, uint64(c))
	}
	return h
}

// CacheStats is a point-in-time snapshot of memo effectiveness and
// residency; the serving layer exports it on /metrics.
type CacheStats struct {
	// Hits counts MINIMIZE1 row lookups answered from the memo — including
	// lookups that waited on another worker's in-flight computation.
	Hits uint64
	// Misses counts row lookups that had to run the DP, a row grown for a
	// larger k included. With in-flight deduplication each distinct row is
	// computed, and counted, once.
	Misses uint64
	// Evictions counts entries dropped by the CLOCK policy to stay under
	// the configured byte bound.
	Evictions uint64
	// Bytes is the accounted resident size of the memo.
	Bytes int64
	// Entries is the number of resident memo entries, one per histogram.
	Entries int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// row returns a MINIMIZE1 row of hist at least width long — u[j] for
// j < width, u[0] = 1 — computing, caching and deduplicating as needed.
// fp is histPrefix(hist). A resident row at least width long is a hit; a
// shorter one is recomputed at the new width and replaces it. The
// returned row may be longer than width and is shared: callers must not
// write it.
func (e *Engine) row(fp uint64, hist []int, width int) []float64 {
	s := &e.shards[fp&e.shardMask]

	// Fast path: a resident hit needs only the read lock.
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

	s.mu.Lock()
	// Re-check under the write lock: another worker may have stored (or
	// registered an in-flight computation of) this histogram in between.
	if me := s.entries[fp]; me != nil {
		if !slices.Equal(me.hist, hist) {
			// A true 64-bit fingerprint collision: compute uncached rather
			// than thrash the resident entry.
			s.mu.Unlock()
			e.misses.Add(1)
			return m1Row(hist, width-1)
		}
		if row := me.row; len(row) >= width {
			s.mu.Unlock()
			me.ref.Store(true)
			e.hits.Add(1)
			return row
		}
	}
	if call, ok := s.inflight[fp]; ok {
		s.mu.Unlock()
		if slices.Equal(call.hist, hist) && call.width >= width {
			call.wg.Wait()
			if !call.panicked {
				e.hits.Add(1)
				return call.row
			}
		}
		// A collision, a narrower row in flight or a panicked computation:
		// compute uncached.
		e.misses.Add(1)
		return m1Row(hist, width-1)
	}
	call := &memoCall{hist: hist, width: width}
	call.wg.Add(1)
	s.inflight[fp] = call
	s.mu.Unlock()

	// The cleanup is deferred so a panic in the DP (or in storeLocked) can
	// never strand the in-flight entry or the shard lock: waiters would
	// otherwise block forever and the shard would wedge every worker
	// hashing to it. Done is registered first so it runs last, after
	// panicked/row are settled.
	e.misses.Add(1)
	completed := false
	defer call.wg.Done()
	defer func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.inflight, fp)
		if completed {
			e.storeLocked(s, fp, hist, call.row)
		} else {
			call.panicked = true
		}
	}()
	call.row = m1Row(hist, width-1)
	completed = true
	return call.row
}

// storeLocked makes row the resident row of hist: it inserts a new entry,
// or gives a resident entry with a shorter row the longer one in place
// (the entry keeps its CLOCK ring slot). It evicts other entries via CLOCK
// until the shard fits its budget; an entry that alone would exceed the
// budget is not stored, and a resident entry then keeps its shorter row.
// The caller holds s.mu.
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

// CacheSize reports the number of distinct histogram rows resident in the
// memo. It reads per-shard atomic counters and never takes a shard lock,
// so a metrics scrape cannot stall DP workers.
func (e *Engine) CacheSize() int {
	n := int64(0)
	for i := range e.shards {
		n += e.shards[i].count.Load()
	}
	return int(n)
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

// Reset drops all memoized state and zeroes every counter.
func (e *Engine) Reset() {
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		s.entries = make(map[uint64]*memoEntry)
		s.ring = nil
		s.hand = 0
		s.bytes.Store(0)
		s.count.Store(0)
		s.mu.Unlock()
	}
	e.hits.Store(0)
	e.misses.Store(0)
	e.evictions.Store(0)
}

// bucketView caches per-run bucket state (histogram, sizes) so the DP's
// inner loops touch plain slices only — no signature strings are built
// anywhere on the disclosure path.
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

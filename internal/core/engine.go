package core

import (
	"sync"
	"sync/atomic"

	"ckprivacy/internal/bucket"
)

// DefaultMemoMaxBytes is the default capacity bound of an Engine's
// MINIMIZE1 memo: roughly 64 MiB of accounted entry bytes. A memoized entry
// costs on the order of 100–300 bytes, so the default holds a few hundred
// thousand distinct (histogram, atom-count) pairs — far more than any one
// dataset's lattice produces, while keeping a long-lived daemon serving an
// open-ended stream of datasets at a bounded resident size.
const DefaultMemoMaxBytes = 64 << 20

// defaultMemoShards is the default shard count. Must be a power of two so
// the shard index is a mask of the key fingerprint.
const defaultMemoShards = 32

// EngineConfig tunes an Engine's memo.
type EngineConfig struct {
	// MemoMaxBytes bounds the total accounted size of memoized MINIMIZE1
	// entries across all shards. Zero means DefaultMemoMaxBytes; a negative
	// value disables the bound entirely (the pre-bound behavior, useful for
	// one-shot batch runs and A/B tests).
	MemoMaxBytes int64
	// Shards is the shard count, rounded up to a power of two. Zero means
	// defaultMemoShards. More shards cut lock contention at a small fixed
	// memory cost.
	Shards int
}

// Engine computes maximum disclosure, memoizing MINIMIZE1 tables by bucket
// histogram. Buckets with equal sensitive-value histograms share all DP
// state, and the cache persists across calls, implementing the paper's
// §3.3.3 remark about incremental recomputation when bucketizations share
// buckets (as the Figure 6 sweep over 72 generalizations heavily does).
//
// The memo is sharded N ways and keyed by a 64-bit FNV-1a fingerprint of
// (histogram, atom count) — the hot path never materializes signature
// strings. Each shard is byte-accounted against a per-shard slice of
// MemoMaxBytes and evicted with a CLOCK second-chance policy, so a
// long-lived engine serving many datasets plateaus instead of leaking.
// Fingerprint hits verify the stored key, so a (cryptographically unlikely)
// 64-bit collision degrades to an uncached computation, never a wrong value.
//
// An Engine is safe for concurrent use. Workers racing on the same missing
// entry deduplicate in flight: the first computes, the rest wait and share
// the result, so each distinct entry is computed (and counted as a miss)
// exactly once.
type Engine struct {
	shards    []memoShard
	shardMask uint64
	// perShardMax is the byte budget of one shard; <= 0 means unbounded.
	perShardMax int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// memoEntry is one resident memo slot. The key and value are immutable;
// ref is atomic so the hit path can set it under the shard's read lock.
type memoEntry struct {
	fp   uint64
	j    int
	hist []int // owned copy of the key histogram, for collision verification
	val  m1Entry
	ref  atomic.Bool // CLOCK second-chance bit, set on every hit
}

// memoEntryOverhead approximates the fixed per-entry heap cost beyond the
// two slices: the entry struct, its map bucket share and its ring slot.
const memoEntryOverhead = 96

func (me *memoEntry) cost() int64 {
	return memoEntryOverhead + int64(len(me.hist))*8 + int64(len(me.val.comp))*8
}

func (me *memoEntry) matches(hist []int, j int) bool {
	return sameKey(me.hist, me.j, hist, j)
}

// memoCall is an in-flight MINIMIZE1 computation other workers can wait on.
type memoCall struct {
	wg   sync.WaitGroup
	hist []int
	j    int
	val  m1Entry
	// panicked marks a computation that died before producing val; waiters
	// then compute for themselves (and propagate the same panic on their
	// own goroutine, confining it per-caller as the pre-dedup memo did).
	panicked bool
}

// memoShard is one lock domain of the memo: a flat fingerprint-keyed map,
// a CLOCK ring over its resident entries, and the in-flight table. Hits
// take only the read lock (the CLOCK bit is atomic), so concurrent workers
// hammering the same hot entries — the level-wise searches' steady state —
// never serialize; misses, inserts and eviction take the write lock.
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

// histPrefix hashes a histogram: the part of a memo fingerprint shared by
// every atom count j. The MINIMIZE2 row pass hashes each histogram once
// and finishes the prefix per j with withJ.
func histPrefix(hist []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range hist {
		h = fnvWord(h, uint64(c))
	}
	return h
}

// withJ finishes a histogram prefix with the atom count j.
func withJ(prefix uint64, j int) uint64 { return fnvWord(prefix, uint64(j)) }

// fingerprint is the memo key hash of (hist, j): 64-bit FNV-1a over the
// histogram's counts, then j.
func fingerprint(hist []int, j int) uint64 { return withJ(histPrefix(hist), j) }

// CacheStats is a point-in-time snapshot of memo effectiveness and
// residency; the serving layer exports it on /metrics.
type CacheStats struct {
	// Hits counts MINIMIZE1 lookups answered from the memo — including
	// lookups that waited on another worker's in-flight computation.
	Hits uint64
	// Misses counts lookups that had to run the DP. With in-flight
	// deduplication each distinct entry is computed, and counted, once.
	Misses uint64
	// Evictions counts entries dropped by the CLOCK policy to stay under
	// the configured byte bound.
	Evictions uint64
	// Bytes is the accounted resident size of the memo.
	Bytes int64
	// Entries is the number of resident memo entries.
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

// m1 returns the memoized MINIMIZE1 entry for (hist, j), computing, caching
// and deduplicating as needed. MINIMIZE1 with zero atoms is the constant 1,
// so j = 0 never touches the memo: no (hist, 0) entry is stored or counted.
func (e *Engine) m1(hist []int, j int) m1Entry {
	if j == 0 {
		return m1Entry{val: 1}
	}
	return e.lookup(fingerprint(hist, j), hist, j)
}

// lookup is m1 for a caller that already holds fp = fingerprint(hist, j).
func (e *Engine) lookup(fp uint64, hist []int, j int) m1Entry {
	s := &e.shards[fp&e.shardMask]

	// Fast path: a resident hit needs only the read lock.
	s.mu.RLock()
	me, ok := s.entries[fp]
	s.mu.RUnlock()
	if ok {
		if me.matches(hist, j) {
			me.ref.Store(true)
			e.hits.Add(1)
			return me.val
		}
		// A true 64-bit fingerprint collision: compute uncached rather than
		// thrash the resident entry.
		e.misses.Add(1)
		return m1Compute(hist, j)
	}

	s.mu.Lock()
	// Re-check under the write lock: another worker may have inserted (or
	// registered an in-flight computation of) this key in between.
	if me, ok := s.entries[fp]; ok {
		s.mu.Unlock()
		if me.matches(hist, j) {
			me.ref.Store(true)
			e.hits.Add(1)
			return me.val
		}
		e.misses.Add(1)
		return m1Compute(hist, j)
	}
	if call, ok := s.inflight[fp]; ok {
		collided := !sameKey(call.hist, call.j, hist, j)
		s.mu.Unlock()
		if collided {
			e.misses.Add(1)
			return m1Compute(hist, j)
		}
		call.wg.Wait()
		if call.panicked {
			e.misses.Add(1)
			return m1Compute(hist, j)
		}
		e.hits.Add(1)
		return call.val
	}
	call := &memoCall{hist: hist, j: j}
	call.wg.Add(1)
	s.inflight[fp] = call
	s.mu.Unlock()

	// The cleanup is deferred so a panic in the DP (or in insertLocked)
	// can never strand the in-flight entry or the shard lock: waiters
	// would otherwise block forever and the shard would wedge every worker
	// hashing to it. Done is registered first so it runs last, after
	// panicked/val are settled.
	e.misses.Add(1)
	completed := false
	defer call.wg.Done()
	defer func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.inflight, fp)
		if completed {
			e.insertLocked(s, fp, hist, j, call.val)
		} else {
			call.panicked = true
		}
	}()
	call.val = m1Compute(hist, j)
	completed = true
	return call.val
}

func sameKey(aHist []int, aJ int, bHist []int, bJ int) bool {
	if aJ != bJ || len(aHist) != len(bHist) {
		return false
	}
	for i := range aHist {
		if aHist[i] != bHist[i] {
			return false
		}
	}
	return true
}

// insertLocked stores a computed entry, evicting via CLOCK until it fits.
// The caller holds s.mu.
func (e *Engine) insertLocked(s *memoShard, fp uint64, hist []int, j int, val m1Entry) {
	if _, exists := s.entries[fp]; exists {
		return
	}
	me := &memoEntry{
		fp:   fp,
		j:    j,
		hist: append([]int(nil), hist...),
		val:  val,
	}
	me.ref.Store(true)
	cost := me.cost()
	if e.perShardMax > 0 {
		if cost > e.perShardMax {
			// An entry larger than a whole shard's budget would evict
			// everything and immediately be evicted itself; skip caching.
			return
		}
		for s.bytes.Load()+cost > e.perShardMax && len(s.ring) > 0 {
			e.evictOneLocked(s)
		}
	}
	s.ring = append(s.ring, me)
	s.entries[fp] = me
	s.bytes.Add(cost)
	s.count.Add(1)
}

// evictOneLocked advances the CLOCK hand, clearing second-chance bits,
// until it drops one entry. The caller holds s.mu and guarantees the ring
// is non-empty.
func (e *Engine) evictOneLocked(s *memoShard) {
	for {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		me := s.ring[s.hand]
		if me.ref.Load() {
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

// CacheSize reports the number of distinct (histogram, atom-count) entries
// resident in the memo. It reads per-shard atomic counters and never takes
// a shard lock, so a metrics scrape cannot stall DP workers.
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

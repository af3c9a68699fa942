package anonymize

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"ckprivacy/internal/bucket"
)

// cacheShards is the shard count of the bucketization cache. 32 keeps lock
// contention negligible for any realistic worker budget while costing only
// 32 small maps.
const cacheShards = 32

// cacheEntry is one complete level vector's slot in the cache, keyed by
// the vector's lattice key. It is pending while the leader that claimed
// it materializes it: bz is nil and waiters block on done. publish sets
// bz, and from then on the entry is an immutable cached bucketization,
// with its row ids (rowIDs) or without, as the plan that built it served
// row-id or histogram readers. abandon removes a pending entry and hands
// the leader's error to its waiters. A patched entry (Problem.Append) is
// born published and has no done channel.
//
// A row-id read of a published entry without row ids replaces it with a
// pending fill-in entry, whose hist is the published bucketization:
// histogram readers keep reading hist while the leader fills in its row
// ids, and waiters get the filled-in bucketization. An abandoned fill-in
// puts the histogram entry back.
type cacheEntry struct {
	vec    []int // complete level vector, schema QI order
	bz     *bucket.Bucketization
	rowIDs bool
	hist   *bucket.Bucketization
	err    error
	done   chan struct{} // closed by publish or abandon
}

// wait blocks until the entry's leader publishes or abandons it.
func (e *cacheEntry) wait() (*bucket.Bucketization, bool, error) {
	if e.done != nil {
		<-e.done
	}
	return e.bz, e.rowIDs, e.err
}

// serves returns the bucketization the entry serves a reader with, nil
// when the reader must wait for it: a published one that holds row ids
// when the reader needs them, or, for a histogram reader, any published
// one or the one a pending fill-in is filling in. The caller holds the
// entry's shard lock.
func (e *cacheEntry) serves(rowIDs bool) *bucket.Bucketization {
	switch {
	case e.bz != nil && (e.rowIDs || !rowIDs):
		return e.bz
	case !rowIDs:
		return e.hist
	}
	return nil
}

// cached is a point-in-time view of a published entry: its vector and its
// bucketization, which a pending fill-in reports in the histogram form.
type cached struct {
	vec    []int
	bz     *bucket.Bucketization
	rowIDs bool
}

// cacheShard is one lock and map of the cache. bz of an entry in m is
// written under mu, so a reader holding mu sees whether it is published.
type cacheShard struct {
	mu sync.RWMutex
	m  map[string]*cacheEntry
}

// bucketizeCache is a sharded, concurrency-safe map from level vectors to
// their bucketizations, pending or published. The level-wise parallel
// searches hit it from every worker at once; sharding by key hash keeps
// the fast path (read of a published entry) off a single global lock.
//
// A vector is materialized once per version, and filled in with row ids
// at most once: the first plan to need it claims its entry and leads,
// every other one waits on the entry. An entry is held pending only while
// its leader works, never while the leader waits on another entry, so
// claims cannot deadlock. Each cache
// belongs to one problem version; an append builds the next version's
// cache by patching this one's published entries rather than mutating
// them (snapshots pinned on this version keep reading it).
type bucketizeCache struct {
	shards [cacheShards]cacheShard

	hits   atomic.Uint64
	misses atomic.Uint64
}

func newBucketizeCache() *bucketizeCache {
	c := &bucketizeCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
	}
	return c
}

// carryCounters seeds the cache's hit/miss counters from a predecessor so
// the serving layer's cumulative cache metrics stay monotonic across
// appends.
func (c *bucketizeCache) carryCounters(prev *bucketizeCache) {
	c.hits.Store(prev.hits.Load())
	c.misses.Store(prev.misses.Load())
}

func (c *bucketizeCache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%cacheShards]
}

// countHit counts a request answered by a published bucketization: a
// direct Bucketize call's, or a vector at its search's first request.
// Misses are counted by countMiss, one per node the sweep executor
// actually materializes, so a miss that a racing sweep fills first costs
// no miss.
func (c *bucketizeCache) countHit() { c.hits.Add(1) }

// peek returns the bucketization the entry at key serves a reader with
// (serves), without touching the hit/miss counters: the sweep planner
// probes the cache while deciding what to materialize, and a probe is
// neither a hit nor a materialization. A pending entry is not a
// bucketization yet.
func (c *bucketizeCache) peek(key string, rowIDs bool) (*bucket.Bucketization, bool) {
	s := c.shard(key)
	s.mu.RLock()
	var bz *bucket.Bucketization
	if e := s.m[key]; e != nil {
		bz = e.serves(rowIDs)
	}
	s.mu.RUnlock()
	return bz, bz != nil
}

// claim returns the entry at key and the bucketization it serves a reader
// that needs row ids (rowIDs) or histograms only, or nil when the reader
// must wait on the entry. When there is no entry, it adds a new pending
// one for vec; when a row-id reader finds the histogram form published,
// it replaces that entry with a pending fill-in of it. In both cases the
// caller leads (leader true) and must end the claim with publish or
// abandon.
func (c *bucketizeCache) claim(key string, vec []int, rowIDs bool) (e *cacheEntry, bz *bucket.Bucketization, leader bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.m[key]
	switch {
	case cur == nil:
		e = &cacheEntry{vec: vec, done: make(chan struct{})}
	case cur.serves(rowIDs) != nil || cur.bz == nil:
		return cur, cur.serves(rowIDs), false
	default:
		e = &cacheEntry{vec: cur.vec, hist: cur.bz, done: make(chan struct{})}
	}
	s.m[key] = e
	return e, nil, true
}

// publish ends a claim with its bucketization and wakes its waiters.
func (c *bucketizeCache) publish(key string, e *cacheEntry, bz *bucket.Bucketization, rowIDs bool) {
	s := c.shard(key)
	s.mu.Lock()
	e.bz, e.rowIDs = bz, rowIDs
	s.mu.Unlock()
	close(e.done)
}

// abandon ends a failed claim, and its waiters fail with err. A failed
// materialization leaves the cache, so a later request claims the vector
// afresh; a failed fill-in puts the histogram entry it was filling in
// back.
func (c *bucketizeCache) abandon(key string, e *cacheEntry, err error) {
	s := c.shard(key)
	s.mu.Lock()
	if e.hist != nil {
		s.m[key] = &cacheEntry{vec: e.vec, bz: e.hist}
	} else {
		delete(s.m, key)
	}
	e.err = err
	s.mu.Unlock()
	close(e.done)
}

// put stores a published entry: Problem.Append's patched bucketization at
// vec, in a successor cache no reader sees yet.
func (c *bucketizeCache) put(key string, vec []int, bz *bucket.Bucketization, rowIDs bool) {
	s := c.shard(key)
	s.mu.Lock()
	s.m[key] = &cacheEntry{vec: vec, bz: bz, rowIDs: rowIDs}
	s.mu.Unlock()
}

// countMiss attributes one materialization to the miss counter. The sweep
// executor calls it per node it actually builds, so misses count
// materializations.
func (c *bucketizeCache) countMiss() { c.misses.Add(1) }

// each calls fn on a point-in-time view of every published entry, a
// pending fill-in's histogram form included, outside the shard locks.
// Entries published by racing readers after their shard is visited are
// simply missed — for the append patcher that only costs a later cache
// miss, and for the sweep planner a costlier source, never correctness.
func (c *bucketizeCache) each(fn func(key string, e cached)) {
	type keyed struct {
		key string
		e   cached
	}
	var snapshot []keyed
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		snapshot = snapshot[:0]
		for k, e := range s.m {
			if bz := e.serves(false); bz != nil {
				snapshot = append(snapshot, keyed{k, cached{vec: e.vec, bz: bz, rowIDs: bz == e.bz && e.rowIDs}})
			}
		}
		s.mu.RUnlock()
		for _, ke := range snapshot {
			fn(ke.key, ke.e)
		}
	}
}

// CacheStats is a snapshot of a Problem's bucketization-cache
// effectiveness; the serving layer exports it on /metrics.
type CacheStats struct {
	// Hits counts Bucketize calls answered from the cache, and level
	// vectors a lattice search found cached when it first requested them
	// (once per search, however many of its nodes induce the vector).
	Hits uint64
	// Misses counts bucketizations materialized (scanned or coarsened)
	// because no cached entry answered the request.
	Misses uint64
	// Entries is the number of cached bucketizations: one per complete
	// level vector, so an Incognito subset node and the full node it
	// induces count once.
	Entries int
}

// stats snapshots the cache counters and entry count.
func (c *bucketizeCache) stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: c.size()}
}

// size reports the number of published bucketizations.
func (c *bucketizeCache) size() int {
	n := 0
	c.each(func(string, cached) { n++ })
	return n
}

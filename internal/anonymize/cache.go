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

// cacheEntry is one cached bucketization together with the complete level
// assignment (every schema QI attribute present) it was materialized at,
// as a map and as a level vector in schema QI order. The levels are what
// let an append patch the entry in place (bucket.AppendRows re-keys only
// the appended rows at exactly these levels); the vector is what lets the
// sweep planner coarsen later nodes from the entry.
type cacheEntry struct {
	bz     *bucket.Bucketization
	levels bucket.Levels
	vec    []int
}

// bucketizeCache is a sharded, concurrency-safe map from (subset, node)
// cache keys to materialized bucketizations. The level-wise parallel
// searches hit it from every worker at once; sharding by key hash keeps the
// fast path (read of an existing entry) off a single global lock.
//
// Entries are immutable once stored: a racing put of the same key is
// harmless because bucketization is deterministic, so both values are
// interchangeable. Each cache belongs to one problem version; an append
// builds the next version's cache by patching this one's entries rather
// than mutating them (snapshots pinned on this version keep reading it).
type bucketizeCache struct {
	shards [cacheShards]struct {
		mu sync.RWMutex
		m  map[string]cacheEntry
	}

	hits   atomic.Uint64
	misses atomic.Uint64

	// claims holds the level vectors being materialized, by lattice key.
	claimMu sync.Mutex
	claims  map[string]*claim
}

// claim is one level vector's materialization in progress. The leader
// that took it scans or coarsens, caches the result and then releases it:
// res or err is set and done closed, so every waiter reuses the result or
// fails with the error. A claim is held only while its leader works, never
// while the leader waits on another claim, so claims cannot deadlock.
type claim struct {
	key  string
	done chan struct{}
	res  *planResult
	err  error
}

// claim returns the claim on a level vector's key and whether the caller
// took it (leads) or must wait for its leader.
func (c *bucketizeCache) claim(key string) (*claim, bool) {
	c.claimMu.Lock()
	defer c.claimMu.Unlock()
	if cl, ok := c.claims[key]; ok {
		return cl, false
	}
	cl := &claim{key: key, done: make(chan struct{})}
	c.claims[key] = cl
	return cl, true
}

// release ends a claim with its result or error and wakes its waiters.
// The leader calls it after caching the result, so a later request finds
// the cache entry instead of a claim.
func (c *bucketizeCache) release(cl *claim, res *planResult, err error) {
	c.claimMu.Lock()
	delete(c.claims, cl.key)
	c.claimMu.Unlock()
	cl.res, cl.err = res, err
	close(cl.done)
}

// wait blocks until the claim's leader releases it.
func (cl *claim) wait() (*planResult, error) {
	<-cl.done
	return cl.res, cl.err
}

func newBucketizeCache() *bucketizeCache {
	c := &bucketizeCache{claims: make(map[string]*claim)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]cacheEntry)
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

func (c *bucketizeCache) shard(key string) *struct {
	mu sync.RWMutex
	m  map[string]cacheEntry
} {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%cacheShards]
}

// get is peek counting a hit. Misses are not counted here: the sweep
// executor counts one per node it actually materializes, so a miss that a
// racing sweep fills first costs no miss.
func (c *bucketizeCache) get(key string) (*bucket.Bucketization, bool) {
	bz, ok := c.peek(key)
	if ok {
		c.hits.Add(1)
	}
	return bz, ok
}

// peek looks a key up without touching the hit/miss counters: the sweep
// planner probes the cache while deciding what to materialize, and a probe
// is neither a serving-path hit nor a materialization.
func (c *bucketizeCache) peek(key string) (*bucket.Bucketization, bool) {
	s := c.shard(key)
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	return e.bz, ok
}

// countMiss attributes one materialization to the miss counter. The sweep
// executor calls it per node it actually builds, so misses count
// materializations.
func (c *bucketizeCache) countMiss() { c.misses.Add(1) }

func (c *bucketizeCache) put(key string, e cacheEntry) {
	s := c.shard(key)
	s.mu.Lock()
	s.m[key] = e
	s.mu.Unlock()
}

// each calls fn on a point-in-time copy of every cached entry, outside
// the shard locks. Entries added by racing readers after their shard is
// visited are simply missed — for the append patcher that only costs a
// later cache miss, and for the sweep planner a costlier source, never
// correctness.
func (c *bucketizeCache) each(fn func(key string, e cacheEntry)) {
	type keyed struct {
		key string
		e   cacheEntry
	}
	var snapshot []keyed
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		snapshot = snapshot[:0]
		for k, e := range s.m {
			snapshot = append(snapshot, keyed{k, e})
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
	// Hits counts Bucketize calls answered from the cache.
	Hits uint64
	// Misses counts bucketizations materialized (scanned or coarsened)
	// because no cached entry answered the request.
	Misses uint64
	// Entries is the number of cached bucketizations.
	Entries int
}

// stats snapshots the cache counters and entry count.
func (c *bucketizeCache) stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: c.size()}
}

// size reports the number of cached bucketizations (for tests).
func (c *bucketizeCache) size() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
	}
	return n
}

package anonymize

import (
	"fmt"
	"sync"
	"testing"

	"ckprivacy/internal/core"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/privacy"
)

// hospitalWorkers is hospital with a worker budget.
func hospitalWorkers(t *testing.T, workers int) *Problem {
	t.Helper()
	base := hospital(t)
	return problemWithWorkers(t, base.Table, base.Hierarchies, base.QI, workers)
}

func TestWithWorkersResolution(t *testing.T) {
	if w := hospital(t).Workers(); w != 1 {
		t.Errorf("default workers = %d, want 1", w)
	}
	if w := hospitalWorkers(t, 3).Workers(); w != 3 {
		t.Errorf("workers = %d, want 3", w)
	}
	if w := hospitalWorkers(t, 0).Workers(); w < 1 {
		t.Errorf("workers = %d, want >= 1 (GOMAXPROCS)", w)
	}
}

// TestParallelSearchesMatchSerial is the cross-layer equivalence test: the
// searches must return identical node sequences AND identical Stats at any
// worker budget, for every criterion.
func TestParallelSearchesMatchSerial(t *testing.T) {
	serial := hospital(t)
	engine := core.NewEngine()
	criteria := []privacy.Criterion{
		privacy.KAnonymity{K: 2},
		privacy.KAnonymity{K: 5},
		privacy.DistinctLDiversity{L: 3},
		privacy.CKSafety{C: 0.7, K: 1, Engine: engine},
		privacy.CKSafety{C: 0.99, K: 2, Engine: engine},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		par := hospitalWorkers(t, workers)
		for _, crit := range criteria {
			sN, sStats, err := serial.MinimalSafe(crit)
			if err != nil {
				t.Fatal(err)
			}
			pN, pStats, err := par.MinimalSafe(crit)
			if err != nil {
				t.Fatal(err)
			}
			if !sameNodeOrder(sN, pN) || sStats != pStats {
				t.Errorf("workers=%d %s: MinimalSafe %v/%+v != serial %v/%+v",
					workers, crit.Name(), pN, pStats, sN, sStats)
			}

			sN, sStats, err = serial.MinimalSafeIncognito(crit)
			if err != nil {
				t.Fatal(err)
			}
			pN, pStats, err = par.MinimalSafeIncognito(crit)
			if err != nil {
				t.Fatal(err)
			}
			if !sameNodeOrder(sN, pN) || sStats != pStats {
				t.Errorf("workers=%d %s: Incognito %v/%+v != serial %v/%+v",
					workers, crit.Name(), pN, pStats, sN, sStats)
			}

			sNode, sOK, _, err := serial.ChainSearch(crit)
			if err != nil {
				t.Fatal(err)
			}
			pNode, pOK, _, err := par.ChainSearch(crit)
			if err != nil {
				t.Fatal(err)
			}
			if sOK != pOK || (sOK && sNode.Key() != pNode.Key()) {
				t.Errorf("workers=%d %s: ChainSearch %v/%v != serial %v/%v",
					workers, crit.Name(), pNode, pOK, sNode, sOK)
			}
		}
	}
}

// TestBucketizeCacheConcurrent hammers one problem's cache from many
// goroutines; correctness is checked by value identity (every goroutine
// must observe a valid bucketization for its node) and the race detector
// does the rest.
func TestBucketizeCacheConcurrent(t *testing.T) {
	p := hospitalWorkers(t, 8)
	nodes := p.Space().All()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for _, n := range nodes {
					bz, err := p.Bucketize(n)
					if err != nil {
						errs <- err
						return
					}
					if bz.Size() != p.Table.Len() {
						errs <- fmt.Errorf("node %v: size %d != %d", n, bz.Size(), p.Table.Len())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := p.cur.Load().cache.size(); got != len(nodes) {
		t.Errorf("cache size = %d, want %d", got, len(nodes))
	}
}

// TestCacheKeyCollisionFree asserts distinct (subset, node) pairs map to
// distinct cache keys across the hospital lattice's Incognito traversal.
func TestCacheKeyCollisionFree(t *testing.T) {
	seen := map[string][2]string{}
	add := func(subset []int, node lattice.Node) {
		key := cacheKey(subset, node)
		id := [2]string{lattice.Node(subset).String(), node.String()}
		if prev, ok := seen[key]; ok && prev != id {
			t.Fatalf("cache key %q shared by %v and %v", key, prev, id)
		}
		seen[key] = id
	}
	s := lattice.MustSpace(3, 3, 2)
	for _, n := range s.All() {
		add([]int{0, 1, 2}, n)
	}
	sub, _ := s.SubSpace([]int{1})
	for _, n := range sub.All() {
		add([]int{1}, n)
	}
}

func sameNodeOrder(a, b []lattice.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

// TestBoundedMemoSearchParity runs the parallel lattice search against
// three engines — unbounded, default-bounded, and a tiny cap that must
// evict mid-search — and asserts identical minimal nodes and search stats.
// Eviction under a racing worker pool may cost recomputation but can never
// change a verdict.
func TestBoundedMemoSearchParity(t *testing.T) {
	base := hospital(t)
	// Few shards keep the tiny cap's per-shard budget above the per-entry
	// overhead, so entries are actually cached and then actually evicted
	// mid-search (asserted below) — a cap below one entry per shard would
	// just skip caching and test nothing.
	tiny := core.NewEngineWithConfig(core.EngineConfig{MemoMaxBytes: 1 << 9, Shards: 2})
	engines := []*core.Engine{
		core.NewEngineWithConfig(core.EngineConfig{MemoMaxBytes: -1}),
		core.NewEngine(),
		tiny,
	}
	var refNodes []lattice.Node
	var refStats lattice.Stats
	for i, eng := range engines {
		p, err := NewProblemWithOptions(base.Table, base.Hierarchies, base.QI,
			Options{Workers: 4, ShardWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		nodes, stats, err := p.MinimalSafe(privacy.CKSafety{C: 0.7, K: 2, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refNodes, refStats = nodes, stats
			continue
		}
		if !sameNodeOrder(refNodes, nodes) || refStats != stats {
			t.Errorf("engine %d: nodes/stats diverged from unbounded: %v %+v vs %v %+v",
				i, nodes, stats, refNodes, refStats)
		}
	}
	if st := tiny.Stats(); st.Evictions == 0 {
		t.Errorf("tiny engine never evicted during the parallel search: %+v", st)
	}
	// The problem-scoped engine is the one the criterion used: it must
	// have seen the search's lookups.
	p, err := NewProblem(base.Table, base.Hierarchies, base.QI)
	if err != nil {
		t.Fatal(err)
	}
	crit := p.CKSafety(0.7, 2)
	if _, _, err := p.MinimalSafe(crit); err != nil {
		t.Fatal(err)
	}
	if st := p.Engine().Stats(); st.Hits+st.Misses == 0 {
		t.Error("Problem.Engine saw no lookups; CKSafety was not wired to it")
	}
}

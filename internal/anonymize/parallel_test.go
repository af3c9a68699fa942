package anonymize

import (
	"fmt"
	"sync"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataset/adult"
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

// seenCriterion is a criterion that records every bucketization it is
// asked about.
type seenCriterion struct {
	privacy.Criterion
	mu   sync.Mutex
	seen map[*bucket.Bucketization]bool
}

func (c *seenCriterion) Satisfied(bz *bucket.Bucketization) (bool, error) {
	c.mu.Lock()
	c.seen[bz] = true
	c.mu.Unlock()
	return c.Criterion.Satisfied(bz)
}

// TestIncognitoSharesVectorEntries: an Incognito subset node is the
// full-lattice bucketization with the QIs outside its subset suppressed,
// so the cache keeps one entry per complete level vector. On Adult (seed
// 1) a 5-anonymity Incognito search evaluates 47 subset nodes, which
// induce 27 distinct bucketizations. The cache must hold one entry per
// distinct bucketization the criterion saw, each materialized once; a
// full node a subset node induces must be a cache hit on the same
// bucketization; and the next append must patch each entry once. The
// search's nodes and Stats are pinned: sharing entries changes no answer.
func TestIncognitoSharesVectorEntries(t *testing.T) {
	tab := adult.MustGenerate(adult.Config{Seed: 1})
	p, err := NewProblem(tab, adult.Hierarchies(), adult.QuasiIdentifiers())
	if err != nil {
		t.Fatal(err)
	}
	crit := &seenCriterion{Criterion: privacy.KAnonymity{K: 5}, seen: map[*bucket.Bucketization]bool{}}
	nodes, stats, err := p.MinimalSafeIncognito(crit)
	if err != nil {
		t.Fatal(err)
	}
	const wantNodes = "[[0 2 1 0] [1 1 1 1] [2 1 1 0] [3 0 1 0] [3 2 0 1] [5 1 0 0]]"
	if got := fmt.Sprint(nodes); got != wantNodes || stats != (lattice.Stats{Evaluated: 47, Inferred: 204}) {
		t.Fatalf("Incognito: nodes %s stats %+v, want %s and 47 evaluated, 204 inferred", got, stats, wantNodes)
	}
	distinct := len(crit.seen)
	if cs := p.CacheStats(); cs.Entries != distinct || cs.Misses != uint64(distinct) {
		t.Fatalf("cache %+v after Incognito, want %d entries and misses: one per distinct bucketization", cs, distinct)
	}

	snap := p.Snapshot()
	dims := p.Space().Dims()
	for d := range dims {
		sub, err := snap.BucketizeSubset([]int{d}, lattice.Node{0})
		if err != nil {
			t.Fatal(err)
		}
		full := make(lattice.Node, len(dims))
		for i := range full {
			full[i] = dims[i] - 1
		}
		full[d] = 0
		before, planned := p.CacheStats(), p.SweepStats().PlannedNodes
		bz, err := snap.Bucketize(full)
		if err != nil {
			t.Fatal(err)
		}
		if bz != sub {
			t.Errorf("full node %v and subset {%d} at level 0 returned different bucketizations", full, d)
		}
		if after := p.CacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses || p.SweepStats().PlannedNodes != planned {
			t.Errorf("full node %v: cache %+v -> %+v; want one hit and no miss or plan", full, before, after)
		}
	}

	res, err := p.Append(tab.Rows[:64])
	if err != nil {
		t.Fatal(err)
	}
	if res.PatchedNodes != distinct || res.InvalidatedNodes != 0 {
		t.Fatalf("append patched %d and invalidated %d entries, want %d patched", res.PatchedNodes, res.InvalidatedNodes, distinct)
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

// TestCKSafetyUsesProblemEngine: the criterion Problem.CKSafety builds
// runs on the problem-scoped engine, so a search's row reads and builds
// show in Problem.Engine's counters.
func TestCKSafetyUsesProblemEngine(t *testing.T) {
	base := hospital(t)
	p, err := NewProblem(base.Table, base.Hierarchies, base.QI)
	if err != nil {
		t.Fatal(err)
	}
	crit := p.CKSafety(0.7, 2)
	if _, _, err := p.MinimalSafe(crit); err != nil {
		t.Fatal(err)
	}
	if st := p.Engine().Stats(); st.Hits+st.Misses == 0 {
		t.Error("Problem.Engine counted no rows; CKSafety was not wired to it")
	}
}

package lattice

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// sameNodeSeq requires equality including order — the batch searches
// promise byte-identical output, not just set equality.
func sameNodeSeq(a, b []Node) bool {
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

// batchWorkers are the worker budgets every batch search is checked at
// against its serial oracle.
var batchWorkers = []int{1, 2, 4}

// prefetchLog records every node a search hands to its Prefetch callback,
// so a test can require that each predicate evaluation was announced in
// the same frontier before it ran.
type prefetchLog struct {
	mu   sync.Mutex
	seen map[string]bool
	late int // evaluations of nodes no prefetch announced
}

func newPrefetchLog() *prefetchLog { return &prefetchLog{seen: map[string]bool{}} }

func (l *prefetchLog) prefetch(nodes []Node) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, n := range nodes {
		l.seen[n.Key()] = true
	}
	return nil
}

func (l *prefetchLog) subsetPrefetch(subsets [][]int, nodes []Node) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, n := range nodes {
		l.seen[Node(subsets[i]).Key()+"/"+n.Key()] = true
	}
	return nil
}

func (l *prefetchLog) pred(pred Pred) Pred {
	return func(n Node) (bool, error) {
		l.mu.Lock()
		if !l.seen[n.Key()] {
			l.late++
		}
		l.mu.Unlock()
		return pred(n)
	}
}

func (l *prefetchLog) check(check SubsetPred) SubsetPred {
	return func(subset []int, n Node) (bool, error) {
		l.mu.Lock()
		if !l.seen[Node(subset).Key()+"/"+n.Key()] {
			l.late++
		}
		l.mu.Unlock()
		return check(subset, n)
	}
}

// TestMinimalSatisfyingParallelEquivalence is the batch-vs-oracle property
// test: for random spaces and random monotone predicates, the batch
// search at workers 1, 2 and 4 must return the serial oracle's node
// sequence and Stats, and must prefetch every node before evaluating it.
func TestMinimalSatisfyingParallelEquivalence(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		dims := []int{2 + int(raw[0])%3, 1 + int(raw[1])%3, 1 + int(raw[2])%2}
		s := MustSpace(dims...)
		all := s.All()
		var gens []Node
		for i := 3; i < len(raw) && i < 8; i++ {
			gens = append(gens, all[int(raw[i])%len(all)])
		}
		pred := generatorPred(gens)
		serial, sStats, err := MinimalSatisfying(s, pred)
		if err != nil {
			return false
		}
		for _, workers := range batchWorkers {
			log := newPrefetchLog()
			got, stats, err := MinimalSatisfyingBatch(s, log.pred(pred), log.prefetch, workers)
			if err != nil || !sameNodeSeq(serial, got) || stats != sStats || log.late != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIncognitoParallelEquivalence(t *testing.T) {
	f := func(w0, w1, w2, lim uint8) bool {
		s := MustSpace(4, 3, 2)
		weights := []int{int(w0)%4 + 1, int(w1)%4 + 1, int(w2)%4 + 1}
		limit := int(lim) % 12
		check, _ := weightedCheck(s, weights, limit)
		serial, sStats, err := Incognito(s, check)
		if err != nil {
			return false
		}
		for _, workers := range batchWorkers {
			log := newPrefetchLog()
			got, stats, err := IncognitoBatch(s, log.check(check), log.subsetPrefetch, workers)
			if err != nil || !sameNodeSeq(serial, got) || stats != sStats || log.late != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBinarySearchChainParallelEquivalence(t *testing.T) {
	s := MustSpace(5, 4, 3)
	chain := s.Chain()
	for workers := 1; workers <= 8; workers++ {
		for threshold := 0; threshold <= s.MaxHeight()+1; threshold++ {
			pred := func(n Node) (bool, error) { return n.Height() >= threshold, nil }
			wantIdx, wantStats, err := BinarySearchChain(chain, pred)
			if err != nil {
				t.Fatal(err)
			}
			log := newPrefetchLog()
			idx, stats, err := BinarySearchChainBatch(chain, log.pred(pred), log.prefetch, workers)
			if err != nil {
				t.Fatal(err)
			}
			if idx != wantIdx {
				t.Errorf("workers=%d threshold=%d: idx = %d, want %d", workers, threshold, idx, wantIdx)
			}
			if log.late != 0 {
				t.Errorf("workers=%d threshold=%d: %d probes evaluated without a prefetch", workers, threshold, log.late)
			}
			if workers == 1 && stats != wantStats {
				t.Errorf("workers=1 threshold=%d: stats = %+v, want serial %+v", threshold, stats, wantStats)
			}
			// Multi-section search must not do more rounds' worth of work
			// than serial would across the board: each round costs at most
			// `workers` evaluations but divides the interval by workers+1.
			if workers > 1 && stats.Evaluated > wantStats.Evaluated*workers {
				t.Errorf("workers=%d threshold=%d: %d evaluations vs serial %d", workers, threshold, stats.Evaluated, wantStats.Evaluated)
			}
		}
	}
}

// TestParallelSearchesActuallyRunConcurrently asserts that with workers>1
// at least two predicate evaluations overlap in time, i.e. the pool is not
// secretly serial. Every evaluation above the root waits until a second one
// is in flight, so a pool that runs more than one goroutine shows the
// overlap on one CPU as on many; a serial pool waits out the deadline once.
func TestParallelSearchesActuallyRunConcurrently(t *testing.T) {
	s := MustSpace(4, 4, 4)
	var inFlight, peak atomic.Int32
	overlap := make(chan struct{})
	var overlapOnce sync.Once
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pred := func(n Node) (bool, error) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		if cur >= 2 {
			overlapOnce.Do(func() { close(overlap) })
		}
		// The root is the only node of its level, so it never has company.
		if n.Height() > 0 {
			select {
			case <-overlap:
			case <-ctx.Done():
			}
		}
		inFlight.Add(-1)
		return false, nil
	}
	if _, _, err := MinimalSatisfyingBatch(s, pred, nil, 4); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got < 2 {
		t.Fatalf("peak in-flight evaluations = %d, want >= 2: the pool ran serially", got)
	}
}

func TestParallelSearchErrorIsDeterministic(t *testing.T) {
	s := MustSpace(4, 4)
	bad := Node{1, 1}
	pred := func(n Node) (bool, error) {
		if n.Key() == bad.Key() {
			return false, fmt.Errorf("poisoned node")
		}
		return false, nil
	}
	wantErr := fmt.Sprintf("lattice: evaluating %v: poisoned node", bad)
	for workers := 1; workers <= 6; workers++ {
		_, _, err := MinimalSatisfyingBatch(s, pred, nil, workers)
		if err == nil || err.Error() != wantErr {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, wantErr)
		}
	}
}

func TestLevels(t *testing.T) {
	s := MustSpace(3, 2, 2)
	levels := s.Levels()
	if len(levels) != s.MaxHeight()+1 {
		t.Fatalf("levels = %d, want %d", len(levels), s.MaxHeight()+1)
	}
	var flat []Node
	for h, level := range levels {
		for _, n := range level {
			if n.Height() != h {
				t.Errorf("node %v in level %d", n, h)
			}
			flat = append(flat, n)
		}
	}
	if !sameNodeSeq(flat, s.All()) {
		t.Error("Levels flattened does not match All() order")
	}
}

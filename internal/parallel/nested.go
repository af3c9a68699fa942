package parallel

import (
	"sync"
	"sync/atomic"
)

// Pool is a bounded parallelism budget that is safe to share between
// nested layers of work — e.g. lattice-node tasks that each fan out into
// per-shard bucketization tasks. Unlike a classic fixed worker pool,
// submitting to a Pool NEVER blocks waiting for a free worker: the
// submitting goroutine always executes work itself, and extra goroutines
// are recruited only while spare tokens exist. A nested ForEach issued
// from inside a pool task therefore degrades to an inline serial loop
// when the pool is saturated instead of deadlocking on its own tokens,
// and total extra goroutines across all nesting levels never exceed the
// budget.
//
// Determinism matches ForEach: results are written into index-addressed
// slots by the caller, the error of the lowest failing index wins, and a
// pool of size 1 (no spare tokens) runs every loop inline with no
// goroutines at all.
type Pool struct {
	// tokens holds one slot per *extra* worker the pool may run beyond
	// the submitting goroutines. A Pool of size n has n-1 tokens, so n
	// goroutines compute at once when one caller submits, and saturated
	// nested submissions find the channel full and run inline.
	tokens chan struct{}
}

// NewPool returns a pool with a total parallelism budget of n; n < 1
// means one worker per CPU core (GOMAXPROCS). The budget counts the
// submitting goroutine, so NewPool(1) recruits no extra goroutines ever.
func NewPool(n int) *Pool {
	return &Pool{tokens: make(chan struct{}, Workers(n)-1)}
}

// Size returns the pool's total parallelism budget.
func (p *Pool) Size() int { return cap(p.tokens) + 1 }

// ForEach runs fn(i) for every i in [0, n), on the calling goroutine plus
// however many extra workers the pool can lend right now (possibly none).
// Workers pull indices from a shared counter, so uneven items balance.
// If any calls fail, the error of the lowest failing index is returned
// and no new indices are handed out once a failure is observed. A nil
// pool runs the loop inline, stopping at the first error.
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	if p == nil || n <= 1 || cap(p.tokens) == 0 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = -1
		first  error
		wg     sync.WaitGroup
	)
	record := func(i int, err error) {
		failed.Store(true)
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, first = i, err
		}
		mu.Unlock()
	}
	work := func() {
		// Check for a failure before claiming an index, never after: a
		// claimed index is always evaluated, so every index below a
		// recorded failure has run and the lowest failing one is reported.
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				record(i, err)
				return
			}
		}
	}
	// Recruit extra workers only while tokens are spare: a saturated pool
	// (e.g. this ForEach runs inside another pool task) lends nothing and
	// the loop below runs entirely on the calling goroutine.
	for extra := 0; extra < n-1; extra++ {
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.tokens }()
				work()
			}()
			continue
		default:
		}
		break
	}
	work()
	wg.Wait()
	return first
}

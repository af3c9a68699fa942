// Package parallel provides the bounded worker loop behind the level-wise
// lattice searches and experiment sweeps.
//
// The loop's contract is determinism: callers write results into index-
// addressed slots, errors are reported for the lowest failing index, and a
// worker budget of 1 (or a single work item) degenerates to a plain serial
// loop with no goroutines at all. This is what lets the parallel searches
// in internal/lattice promise byte-identical results to their serial
// counterparts.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values below 1 mean "use all
// available parallelism" (runtime.GOMAXPROCS). The result is always >= 1.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines,
// the calling one included. Workers pull indices from a shared counter, so
// uneven work items balance automatically.
//
// Error semantics are deterministic: if any calls fail, ForEach returns the
// error of the lowest failing index, and stops handing out new indices once
// a failure is observed (in-flight calls still finish). With workers <= 1
// the loop runs inline on the calling goroutine and stops at the first
// error, exactly like a hand-written serial loop.
func ForEach(workers, n int, fn func(i int) error) error {
	w := min(Workers(workers), n)
	if w <= 1 {
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
	wg.Add(w - 1)
	for extra := 1; extra < w; extra++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return first
}

// Package parallel provides the bounded worker pool behind the level-wise
// lattice searches and experiment sweeps.
//
// The pool's contract is determinism: callers write results into index-
// addressed slots, errors are reported for the lowest failing index, and a
// worker budget of 1 (or a single work item) degenerates to a plain serial
// loop with no goroutines at all. This is what lets the parallel searches
// in internal/lattice promise byte-identical results to their serial
// counterparts.
package parallel

import "runtime"

// Workers resolves a requested worker count: values below 1 mean "use all
// available parallelism" (runtime.GOMAXPROCS). The result is always >= 1.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines,
// the calling one included: it is Pool.ForEach on a pool of its own, so
// the two share one worker loop. Workers pull indices from a shared
// counter, so uneven work items balance automatically.
//
// Error semantics are deterministic: if any calls fail, ForEach returns the
// error of the lowest failing index, and stops handing out new indices once
// a failure is observed (in-flight calls still finish). With workers <= 1
// the loop runs inline on the calling goroutine and stops at the first
// error, exactly like a hand-written serial loop.
func ForEach(workers, n int, fn func(i int) error) error {
	var p *Pool
	if w := min(Workers(workers), n); w > 1 {
		p = NewPool(w)
	}
	return p.ForEach(n, fn)
}

package lattice

import (
	"fmt"
	"sync/atomic"

	"ckprivacy/internal/parallel"
)

// This file holds the lattice searches. Each works frontier by frontier
// (one lattice level, one Incognito layer, one round of chain probes): the
// frontier is handed to a Prefetch callback, then its predicates run on up
// to `workers` goroutines, then monotone pruning is applied as a barrier
// before the next frontier. The key observation making this exact: every
// pruning mark (markAncestors) points strictly upward in the lattice, so
// within one frontier no node's status can influence another's. Node sets,
// their order and the Stats counters are therefore identical to a serial
// node-at-a-time search (the serial forms live in the tests as oracles);
// only wall-clock changes.
//
// The Prefetch callback is how a search hands its whole frontier to the
// anonymize sweep planner at once: the planner materializes every node of
// the batch along a derivation DAG, and the predicates then evaluate
// against a warm cache. Prefetching is purely a cache warm-up: nothing a
// prefetch computes can change what a frontier decides.

// Prefetch receives the full-lattice nodes a search is about to evaluate
// concurrently. It may materialize them in any order or not at all; it
// must not change what the predicate would answer. A nil Prefetch is a
// no-op.
type Prefetch func(nodes []Node) error

// SubsetPrefetch is Prefetch for Incognito's subset walks: nodes[i] is a
// node of the sub-lattice over QI dimensions subsets[i] (the two slices
// are aligned and equal-length).
type SubsetPrefetch func(subsets [][]int, nodes []Node) error

// MinimalSatisfyingBatch returns every ⪯-minimal node satisfying a
// monotone predicate, evaluating bottom-up level by level and skipping
// nodes already implied satisfied by a lower node. Each level is offered
// to prefetch, then evaluated on up to `workers` goroutines (workers <= 0
// means GOMAXPROCS); pred must be safe for concurrent calls. The returned
// nodes are in (height, lexicographic) order.
func MinimalSatisfyingBatch(s Space, pred Pred, prefetch Prefetch, workers int) ([]Node, Stats, error) {
	workers = parallel.Workers(workers)
	var stats Stats
	satisfied := make(map[string]bool, s.Size())
	var minimal []Node
	for _, level := range s.Levels() {
		// Pruning marks only arrive from strictly lower levels, so the
		// skip-set is frozen for the whole level.
		toEval := level[:0:0]
		for _, n := range level {
			if satisfied[n.Key()] {
				stats.Inferred++
				continue
			}
			toEval = append(toEval, n)
		}
		if prefetch != nil && len(toEval) > 0 {
			if err := prefetch(toEval); err != nil {
				return nil, stats, fmt.Errorf("lattice: prefetching level: %w", err)
			}
		}
		ok := make([]bool, len(toEval))
		var evals atomic.Int64
		err := parallel.ForEach(workers, len(toEval), func(i int) error {
			o, err := pred(toEval[i])
			if err != nil {
				return fmt.Errorf("lattice: evaluating %v: %w", toEval[i], err)
			}
			evals.Add(1)
			ok[i] = o
			return nil
		})
		stats.Evaluated += int(evals.Load())
		if err != nil {
			return nil, stats, err
		}
		// Barrier: apply monotone pruning in serial node order.
		for i, n := range toEval {
			if !ok[i] {
				continue
			}
			minimal = append(minimal, n)
			markAncestors(s, n, satisfied)
		}
	}
	return minimal, stats, nil
}

// IncognitoBatch finds every minimal node of the full lattice satisfying a
// criterion, using the Incognito algorithm [22]: it works through subsets
// of the dimensions in increasing size, keeps the full satisfying set per
// subset, prunes candidates whose projections already failed (subset
// property), and propagates satisfaction upward without re-evaluation
// (generalization property). Both properties hold for any criterion that
// is monotone under bucket merging — k-anonymity, ℓ-diversity and, by
// Theorem 14, (c,k)-safety.
//
// Subsets of equal size are independent (the subset property only
// consults strictly smaller subsets), so one layer of the Incognito
// meta-lattice — all unpruned nodes of one height across all same-size
// subsets — is offered to prefetch and evaluated as one batch on up to
// `workers` goroutines. check must be safe for concurrent calls.
func IncognitoBatch(s Space, check SubsetPred, prefetch SubsetPrefetch, workers int) ([]Node, Stats, error) {
	workers = parallel.Workers(workers)
	var stats Stats
	m := s.NumDims()
	satisfying := make(map[string]map[string]bool)

	type unit struct {
		si int // index into subsets
		n  Node
	}
	var fullSet map[string]bool
	for size := 1; size <= m; size++ {
		subsets := combinations(m, size)
		subSpaces := make([]Space, len(subsets))
		levels := make([][][]Node, len(subsets))
		sats := make([]map[string]bool, len(subsets))
		maxH := 0
		for si, subset := range subsets {
			sub, err := s.SubSpace(subset)
			if err != nil {
				return nil, stats, err
			}
			subSpaces[si] = sub
			levels[si] = sub.Levels()
			sats[si] = make(map[string]bool)
			satisfying[subsetKey(subset)] = sats[si]
			if h := sub.MaxHeight(); h > maxH {
				maxH = h
			}
		}
		for h := 0; h <= maxH; h++ {
			var units []unit
			for si := range subsets {
				if h >= len(levels[si]) {
					continue
				}
				for _, n := range levels[si][h] {
					if sats[si][n.Key()] {
						stats.Inferred++ // marked by a lower satisfying node
						continue
					}
					if !candidate(subsets[si], n, satisfying) {
						stats.Inferred++ // some projection already failed
						continue
					}
					units = append(units, unit{si: si, n: n})
				}
			}
			if prefetch != nil && len(units) > 0 {
				ss := make([][]int, len(units))
				ns := make([]Node, len(units))
				for i, u := range units {
					ss[i], ns[i] = subsets[u.si], u.n
				}
				if err := prefetch(ss, ns); err != nil {
					return nil, stats, fmt.Errorf("lattice: prefetching incognito layer: %w", err)
				}
			}
			ok := make([]bool, len(units))
			var evals atomic.Int64
			err := parallel.ForEach(workers, len(units), func(i int) error {
				u := units[i]
				o, err := check(subsets[u.si], u.n)
				if err != nil {
					return fmt.Errorf("lattice: incognito at %v/%v: %w", subsets[u.si], u.n, err)
				}
				evals.Add(1)
				ok[i] = o
				return nil
			})
			stats.Evaluated += int(evals.Load())
			if err != nil {
				return nil, stats, err
			}
			for i, u := range units {
				if !ok[i] {
					continue
				}
				sats[u.si][u.n.Key()] = true
				markAncestors(subSpaces[u.si], u.n, sats[u.si])
			}
		}
		if size == m {
			fullSet = sats[len(subsets)-1]
		}
	}

	var minimal []Node
	for _, n := range s.All() {
		if !fullSet[n.Key()] {
			continue
		}
		isMin := true
		for _, c := range s.Children(n) {
			if fullSet[c.Key()] {
				isMin = false
				break
			}
		}
		if isMin {
			minimal = append(minimal, n)
		}
	}
	return minimal, stats, nil
}

// BinarySearchChainBatch finds the lowest index in the chain whose node
// satisfies the predicate, assuming the predicate is monotone along the
// chain (Theorem 14 + the chain being ⪯-increasing); it returns -1 when no
// node satisfies. The number of evaluations is O(log |chain|) — the
// paper's §3.4 observation that a safe bucketization can be found in time
// logarithmic in the lattice height.
//
// It is a multi-section search: each round offers up to `workers` evenly
// spaced probes of the remaining interval to prefetch and evaluates them
// concurrently, shrinking the interval by a factor of workers+1 instead of
// 2. With one worker the probe sequence — and therefore the Stats — is
// exactly the serial binary search's; the returned index is the same at
// every worker count.
func BinarySearchChainBatch(chain []Node, pred Pred, prefetch Prefetch, workers int) (int, Stats, error) {
	workers = parallel.Workers(workers)
	var stats Stats
	lo, hi := 0, len(chain) // invariant: answer in [lo, hi]; hi means none
	for lo < hi {
		m := hi - lo
		p := workers
		if p > m {
			p = m
		}
		probes := make([]int, p)
		nodes := make([]Node, p)
		for i := range probes {
			probes[i] = lo + (i+1)*m/(p+1)
			nodes[i] = chain[probes[i]]
		}
		if prefetch != nil {
			if err := prefetch(nodes); err != nil {
				return -1, stats, fmt.Errorf("lattice: prefetching chain probes: %w", err)
			}
		}
		ok := make([]bool, p)
		var evals atomic.Int64
		err := parallel.ForEach(workers, p, func(i int) error {
			o, err := pred(nodes[i])
			if err != nil {
				return fmt.Errorf("lattice: evaluating %v: %w", nodes[i], err)
			}
			evals.Add(1)
			ok[i] = o
			return nil
		})
		stats.Evaluated += int(evals.Load())
		if err != nil {
			return -1, stats, err
		}
		// Monotonicity makes ok a false…true step function over the sorted
		// probes; narrow to the step.
		firstTrue := p
		for i, o := range ok {
			if o {
				firstTrue = i
				break
			}
		}
		if firstTrue < p {
			hi = probes[firstTrue]
		}
		if firstTrue > 0 {
			lo = probes[firstTrue-1] + 1
		}
	}
	if lo == len(chain) {
		return -1, stats, nil
	}
	return lo, stats, nil
}

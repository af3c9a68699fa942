package lattice

import "fmt"

// The serial searches below are the test oracles of the production
// *Batch searches in batch.go: each evaluates one node at a time in
// (height, lexicographic) order, with no frontier hand-off and no worker
// pool, so the Batch forms must reproduce their nodes and Stats exactly.

// MinimalSatisfying returns every ⪯-minimal node satisfying a monotone
// predicate, evaluating bottom-up and skipping nodes already implied
// satisfied by a lower node. The returned nodes are in (height,
// lexicographic) order.
func MinimalSatisfying(s Space, pred Pred) ([]Node, Stats, error) {
	var stats Stats
	satisfied := make(map[string]bool, s.Size())
	var minimal []Node
	for _, n := range s.All() {
		if satisfied[n.Key()] {
			stats.Inferred++
			continue
		}
		ok, err := pred(n)
		if err != nil {
			return nil, stats, fmt.Errorf("lattice: evaluating %v: %w", n, err)
		}
		stats.Evaluated++
		if !ok {
			continue
		}
		minimal = append(minimal, n)
		markAncestors(s, n, satisfied)
	}
	return minimal, stats, nil
}

// Incognito finds every minimal node of the full lattice satisfying a
// criterion, using the Incognito algorithm [22]: it works through subsets
// of the dimensions in increasing size, keeps the full satisfying set per
// subset, prunes candidates whose projections already failed (subset
// property), and propagates satisfaction upward without re-evaluation
// (generalization property).
//
// Both properties hold for any criterion that is monotone under bucket
// merging — k-anonymity, ℓ-diversity and, by Theorem 14, (c,k)-safety.
func Incognito(s Space, check SubsetPred) ([]Node, Stats, error) {
	var stats Stats
	m := s.NumDims()
	// satisfying[key of subset] = set of satisfying sub-node keys.
	satisfying := make(map[string]map[string]bool)

	var fullSet map[string]bool
	for size := 1; size <= m; size++ {
		subsets := combinations(m, size)
		for _, subset := range subsets {
			subSpace, err := s.SubSpace(subset)
			if err != nil {
				return nil, stats, err
			}
			sat := make(map[string]bool)
			satisfying[subsetKey(subset)] = sat
			for _, n := range subSpace.All() {
				if sat[n.Key()] {
					stats.Inferred++ // marked by a lower satisfying node
					continue
				}
				if !candidate(subset, n, satisfying) {
					stats.Inferred++ // some projection already failed
					continue
				}
				ok, err := check(subset, n)
				if err != nil {
					return nil, stats, fmt.Errorf("lattice: incognito at %v/%v: %w", subset, n, err)
				}
				stats.Evaluated++
				if !ok {
					continue
				}
				sat[n.Key()] = true
				markAncestors(subSpace, n, sat)
			}
			if size == m {
				fullSet = sat
			}
		}
	}

	// Minimal elements of the full-dimension satisfying set.
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

// BinarySearchChain finds the lowest index in the chain whose node
// satisfies the predicate, assuming the predicate is monotone along the
// chain (Theorem 14 + the chain being ⪯-increasing). It returns -1 when no
// node satisfies. The number of evaluations is O(log |chain|) — the
// paper's §3.4 observation that a safe bucketization can be found in time
// logarithmic in the lattice height.
func BinarySearchChain(chain []Node, pred Pred) (int, Stats, error) {
	var stats Stats
	lo, hi := 0, len(chain) // invariant: answer in [lo, hi]; hi means none
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := pred(chain[mid])
		if err != nil {
			return -1, stats, fmt.Errorf("lattice: evaluating %v: %w", chain[mid], err)
		}
		stats.Evaluated++
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(chain) {
		return -1, stats, nil
	}
	return lo, stats, nil
}

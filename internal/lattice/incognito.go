package lattice

import "sort"

// SubsetPred evaluates a criterion on the partition induced by a subset of
// the quasi-identifier dimensions generalized to the given levels (the
// other dimensions are ignored, i.e. treated as fully suppressed). node is
// expressed in the subset's own coordinates, aligned with subset.
type SubsetPred func(subset []int, node Node) (bool, error)

// candidate applies Incognito's subset property: every (size-1)-projection
// of the node must satisfy its sub-lattice's criterion.
func candidate(subset []int, n Node, satisfying map[string]map[string]bool) bool {
	if len(subset) == 1 {
		return true
	}
	for drop := range subset {
		sub := make([]int, 0, len(subset)-1)
		proj := make(Node, 0, len(subset)-1)
		for i, d := range subset {
			if i == drop {
				continue
			}
			sub = append(sub, d)
			proj = append(proj, n[i])
		}
		if !satisfying[subsetKey(sub)][proj.Key()] {
			return false
		}
	}
	return true
}

// combinations returns all size-k subsets of {0..m-1} in lexicographic
// order, each sorted ascending.
func combinations(m, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == k {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := start; i < m; i++ {
			idx[pos] = i
			rec(pos+1, i+1)
		}
	}
	rec(0, 0)
	return out
}

func subsetKey(subset []int) string {
	s := append([]int(nil), subset...)
	sort.Ints(s)
	return Node(s).Key()
}

package lattice

// Pred is a predicate over nodes; it must be monotone for the searches in
// this package to be correct (if it holds at n, it holds at every n' ⪰ n).
// Theorem 14 establishes monotonicity for (c,k)-safety.
type Pred func(Node) (bool, error)

// Stats reports search effort.
type Stats struct {
	// Evaluated counts predicate evaluations actually performed.
	Evaluated int
	// Inferred counts nodes whose status was derived from monotonicity
	// without evaluation.
	Inferred int
}

// markAncestors marks every strict generalization of n as satisfied.
func markAncestors(s Space, n Node, satisfied map[string]bool) {
	queue := s.Parents(n)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		key := cur.Key()
		if satisfied[key] {
			continue
		}
		satisfied[key] = true
		queue = append(queue, s.Parents(cur)...)
	}
}

// Chain returns the canonical maximal chain from Bottom to Top: dimension 0
// is raised to its top, then dimension 1, and so on. Its length is
// MaxHeight+1.
func (s Space) Chain() []Node {
	chain := []Node{s.Bottom()}
	cur := s.Bottom()
	for d := 0; d < len(s.dims); d++ {
		for cur[d]+1 < s.dims[d] {
			cur = cur.Clone()
			cur[d]++
			chain = append(chain, cur)
		}
	}
	return chain
}

// Package core implements the paper's primary contribution: the
// polynomial-time computation of worst-case disclosure against an attacker
// holding full identification information plus k basic implications
// (language L^k_basic), and the resulting (c,k)-safety check.
//
// By Theorem 9, the maximum of Pr(t_p[S]=s | B ∧ φ) over φ ∈ L^k_basic is
// attained by k simple implications sharing one consequent atom A. Writing
// the posterior as
//
//	Pr(A | B ∧ ∧_i(A_i → A)) = 1 / (1 + Pr(¬A ∧ ∧_i ¬A_i | B)/Pr(A | B))
//
// the problem reduces to minimizing Formula (1),
// Pr(¬A ∧ ∧_i ¬A_i | B) / Pr(A | B), over atoms A, A_i. MINIMIZE1
// (this file) minimizes Pr(∧ ¬A_i | B) for atoms within one bucket;
// MINIMIZE2 (minimize2.go) combines buckets and places A. Total cost is
// O(|B|·k³) as in §3.3 of the paper.
package core

import (
	"math"
	"sync"
)

// m1Entry is a MINIMIZE1 result for one histogram and atom count.
type m1Entry struct {
	val float64
	// comp is the minimizing descending composition: comp[i] atoms are
	// assigned to the i-th (distinct) person, who avoids the comp[i] most
	// frequent values. Its sum can fall short of the requested atom count
	// when atoms are wasted as duplicates (more persons than the bucket
	// holds, or more values than the bucket distinguishes).
	comp []int
}

// m1Scratch holds MINIMIZE1's reusable DP tables for one histogram and
// atom counts up to k. The state space is (i, cap, rem) with every
// coordinate bounded by k (each of the first i persons consumed at least
// one atom, so i < k whenever rem > 0), giving a dense k·(k+1)·(k+1)
// layout. A state's value does not depend on the root (0, j, j) it is
// reached from, so one table answers every j <= k. choice doubles as the
// visited marker: a computed state always records a best per-person count
// of at least 1.
type m1Scratch struct {
	val    []float64
	choice []int32
	prefix []int
	n, k   int
}

var m1Pool = sync.Pool{New: func() any { return new(m1Scratch) }}

// reset prepares the scratch for hist and atom counts up to k, zeroing
// exactly the region the DP will index.
func (sc *m1Scratch) reset(hist []int, k int) {
	states := k * (k + 1) * (k + 1)
	if cap(sc.val) < states {
		sc.val = make([]float64, states)
		sc.choice = make([]int32, states)
	}
	sc.val = sc.val[:states]
	sc.choice = sc.choice[:states]
	clear(sc.choice)
	if cap(sc.prefix) < len(hist)+1 {
		sc.prefix = make([]int, len(hist)+1)
	}
	sc.prefix = sc.prefix[:len(hist)+1]
	sc.prefix[0] = 0
	sc.n = 0
	for i, c := range hist {
		sc.n += c
		sc.prefix[i+1] = sc.prefix[i] + c
	}
	sc.k = k
}

// idx flattens (i, cap, rem); i < k and cap, rem <= k by construction.
func (sc *m1Scratch) idx(i, cap, rem int) int {
	return (i*(sc.k+1)+cap)*(sc.k+1) + rem
}

// factor is Lemma 12's factor of person i avoiding the ki most frequent
// values, clamped at zero.
func (sc *m1Scratch) factor(i, ki int) float64 {
	prefix := sc.prefix
	pf := prefix[len(prefix)-1]
	if ki < len(prefix)-1 {
		pf = prefix[ki]
	}
	num := sc.n - i - pf
	if num <= 0 {
		return 0
	}
	return float64(num) / float64(sc.n-i)
}

// solve is the DP: the least product over persons i.. placing rem atoms
// with at most cap on any one person, memoized in the tables.
func (sc *m1Scratch) solve(i, cap, rem int) float64 {
	if rem == 0 || i >= sc.n {
		// rem > 0 with all persons used: duplicates, factor 1.
		return 1
	}
	at := sc.idx(i, cap, rem)
	if sc.choice[at] != 0 {
		return sc.val[at]
	}
	best := math.Inf(1)
	bestKi := 1
	maxKi := cap
	if rem < maxKi {
		maxKi = rem
	}
	for ki := 1; ki <= maxKi; ki++ {
		p := sc.factor(i, ki) * sc.solve(i+1, ki, rem-ki)
		if p < best {
			best, bestKi = p, ki
		}
	}
	sc.val[at] = best
	sc.choice[at] = int32(bestKi)
	return best
}

// m1Compute evaluates MINIMIZE1 for a histogram (counts in decreasing
// order) and exactly j atoms, returning the minimal probability
// Pr(∧_{i<j} ¬A_i | B) restricted to atoms naming persons of this bucket,
// together with a minimizing composition.
//
// Lemma 12 gives the value of a fixed composition (l, k_0 ≥ … ≥ k_{l-1}):
//
//	∏_{i<l} (n − i − Σ_{j<k_i} n(s^j)) / (n − i)
//
// and the DP minimizes over compositions. Two guards absent from the
// paper's pseudocode: the numerator clamps at zero (a person cannot avoid
// more mass than remains), and once all n persons carry an atom the
// remaining atoms are duplicates contributing factor 1. The DP tables come
// from a pool, so the call allocates only the returned composition.
func m1Compute(hist []int, j int) m1Entry {
	sc := m1Pool.Get().(*m1Scratch)
	defer m1Pool.Put(sc)
	sc.reset(hist, j)
	val := sc.solve(0, j, j)

	var comp []int
	for i, cap, rem := 0, j, j; rem > 0 && i < sc.n; {
		ki := int(sc.choice[sc.idx(i, cap, rem)])
		comp = append(comp, ki)
		i, cap, rem = i+1, ki, rem-ki
	}
	return m1Entry{val: val, comp: comp}
}

// m1Row returns hist's MINIMIZE1 row u[0..k], u[j] being m1Compute(hist,
// j).val bit for bit: the roots (0, j, j) share one DP table, so the
// states every j reaches are computed once.
func m1Row(hist []int, k int) []float64 {
	row := make([]float64, k+1)
	row[0] = 1
	sc := m1Pool.Get().(*m1Scratch)
	defer m1Pool.Put(sc)
	sc.reset(hist, k)
	for j := 1; j <= k; j++ {
		row[j] = sc.solve(0, j, j)
	}
	return row
}

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

// m1Scratch holds MINIMIZE1's reusable DP table for one histogram and
// atom counts up to k.
//
// V(i, cap, rem) is the least product over persons i.. placing rem atoms
// with at most cap on any one person; person i taking ki atoms
// contributes Lemma 12's factor(i, ki). V is 1 once rem = 0 or every
// person carries an atom (further atoms are duplicates), and V(i, cap,
// rem) = V(i, rem, rem) when cap > rem, so the table holds only cap <=
// rem. For those, V(i, cap, rem) is the running minimum of V(i, cap-1,
// rem) and the one new candidate factor(i, cap)·V(i+1, cap, rem-cap):
// the minimum over ki = 1..cap taken in ascending ki with a strict <, the
// first minimizing ki kept in choice. Each state costs O(1).
//
// Only reachable states are stored. The roots are (0, j, j), j <= k, and
// their running minima need every (0, cap, rem) with cap <= rem <= k.
// Below person 0, each of the first i persons carried at least cap atoms,
// so i·cap + rem <= k: person i holds cap <= k/(i+1), and its run for cap
// holds rem = cap..k-i·cap. That is O(k² log k) states, filled from the
// last person down. A state's value does not depend on the root it is
// reached from, so one table answers every j <= k.
type m1Scratch struct {
	val    []float64
	choice []int32
	// run[first[i]+cap] is the index of (i, cap, 0) in val and choice, so
	// state (i, cap, rem) sits at run[first[i]+cap] + rem. Persons run
	// from 0 to persons = min(n, k); the last, past every real person,
	// has only sentinel states.
	run     []int
	first   []int
	prefix  []int
	n, k    int
	persons int
}

var m1Pool = sync.Pool{New: func() any { return new(m1Scratch) }}

// reset prepares the table for hist and atom counts up to k.
func (sc *m1Scratch) reset(hist []int, k int) {
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
	if persons := min(sc.n, k); len(sc.first) == 0 || sc.k != k || sc.persons != persons {
		sc.layout(k, persons)
	}
}

// layout indexes the states of atom counts up to k over persons persons
// and sizes val and choice to hold them; the layout is kept for the next
// histogram with the same k and persons.
//
// Two sentinel blocks of k+1 cells open the table, so that fill's
// transition needs no branch, and fill never writes them. The first
// reads 1, +Inf, …, +Inf and is every person's cap-0 run: (i, 0, 0) = 1,
// no atoms left, and (i, 0, rem > 0) = +Inf, the running minimum before
// any count is tried. The second reads all 1 and is every run of person
// persons, past the last real one, where the atoms left are duplicates.
func (sc *m1Scratch) layout(k, persons int) {
	sc.k, sc.persons = k, persons
	sc.first = sc.first[:0]
	sc.run = sc.run[:0]
	states := 2 * (k + 1)
	for i := 0; i < persons; i++ {
		sc.first = append(sc.first, len(sc.run))
		sc.run = append(sc.run, 0)
		for c, cmax := 1, k/(i+1); c <= cmax; c++ {
			sc.run = append(sc.run, states-c)
			states += k - (i+1)*c + 1
		}
	}
	sc.first = append(sc.first, len(sc.run))
	for c := 0; c <= k; c++ {
		sc.run = append(sc.run, k+1)
	}
	if cap(sc.val) < states {
		sc.val = make([]float64, states)
		sc.choice = make([]int32, states)
	}
	sc.val = sc.val[:states]
	sc.choice = sc.choice[:states]
	sc.val[0] = 1
	for c := 1; c <= k; c++ {
		sc.val[c] = math.Inf(1)
	}
	for c := k + 1; c <= 2*k+1; c++ {
		sc.val[c] = 1
	}
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

// at is the index of state (i, cap, rem), cap <= rem.
func (sc *m1Scratch) at(i, cap, rem int) int {
	return sc.run[sc.first[i]+cap] + rem
}

// fill computes every state, from the last person down. State (i, cap,
// rem) takes the candidate factor(i, cap)·V(i+1, min(cap, left), left),
// left = rem - cap, when it is strictly below the running minimum (i,
// cap-1, rem), and otherwise keeps that minimum and its count.
func (sc *m1Scratch) fill() {
	val, choice, k := sc.val, sc.choice, sc.k
	for i := sc.persons - 1; i >= 0; i-- {
		runs, below := sc.run[sc.first[i]:sc.first[i+1]], sc.run[sc.first[i+1]:]
		for c := 1; c < len(runs); c++ {
			f := sc.factor(i, c)
			at, prev := runs[c], runs[c-1]
			for rem := c; rem <= k-i*c; rem++ {
				left := rem - c
				best, ki := f*val[below[min(c, left)]+left], int32(c)
				if p := val[prev+rem]; !(best < p) {
					best, ki = p, choice[prev+rem]
				}
				val[at+rem], choice[at+rem] = best, ki
			}
		}
	}
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
// remaining atoms are duplicates contributing factor 1. The DP table
// comes from a pool, so the call allocates only the returned composition.
func m1Compute(hist []int, j int) m1Entry {
	sc := m1Pool.Get().(*m1Scratch)
	defer m1Pool.Put(sc)
	sc.reset(hist, j)
	sc.fill()

	e := m1Entry{val: sc.val[sc.at(0, j, j)]}
	for i, cap, rem := 0, j, j; rem > 0 && i < sc.persons; {
		ki := int(sc.choice[sc.at(i, min(cap, rem), rem)])
		e.comp = append(e.comp, ki)
		i, cap, rem = i+1, ki, rem-ki
	}
	return e
}

// m1Row returns hist's MINIMIZE1 row u[0..k], u[j] being m1Compute(hist,
// j).val bit for bit: the roots (0, j, j) share one DP table.
func m1Row(hist []int, k int) []float64 {
	row := make([]float64, k+1)
	row[0] = 1
	sc := m1Pool.Get().(*m1Scratch)
	defer m1Pool.Put(sc)
	sc.reset(hist, k)
	sc.fill()
	for j := 1; j <= k; j++ {
		row[j] = sc.val[sc.at(0, j, j)]
	}
	return row
}

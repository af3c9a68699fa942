package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// m1Oracle is the recursive MINIMIZE1 the bottom-up table replaced, kept
// as its test oracle: a memoized top-down recursion over dense
// k·(k+1)·(k+1) tables whose states are (i, cap, rem), cap > rem
// included. It shares no code with the production table (m1Scratch).
type m1Oracle struct {
	val    []float64
	choice []int32 // doubles as the visited marker: a solved state records ki >= 1
	prefix []int
	n, k   int
}

// reset prepares the oracle for hist and atom counts up to k.
func (o *m1Oracle) reset(hist []int, k int) {
	states := k * (k + 1) * (k + 1)
	if cap(o.val) < states {
		o.val = make([]float64, states)
		o.choice = make([]int32, states)
	}
	o.val = o.val[:states]
	o.choice = o.choice[:states]
	clear(o.choice)
	o.prefix = append(o.prefix[:0], 0)
	o.n = 0
	for _, c := range hist {
		o.n += c
		o.prefix = append(o.prefix, o.n)
	}
	o.k = k
}

// idx flattens (i, cap, rem); i < k and cap, rem <= k by construction.
func (o *m1Oracle) idx(i, cap, rem int) int {
	return (i*(o.k+1)+cap)*(o.k+1) + rem
}

// factor is Lemma 12's factor of person i avoiding the ki most frequent
// values, clamped at zero.
func (o *m1Oracle) factor(i, ki int) float64 {
	pf := o.prefix[len(o.prefix)-1]
	if ki < len(o.prefix)-1 {
		pf = o.prefix[ki]
	}
	num := o.n - i - pf
	if num <= 0 {
		return 0
	}
	return float64(num) / float64(o.n-i)
}

// solve is the least product over persons i.. placing rem atoms with at
// most cap on any one person, trying ki ascending with a strict <.
func (o *m1Oracle) solve(i, cap, rem int) float64 {
	if rem == 0 || i >= o.n {
		// rem > 0 with all persons used: duplicates, factor 1.
		return 1
	}
	at := o.idx(i, cap, rem)
	if o.choice[at] != 0 {
		return o.val[at]
	}
	best := math.Inf(1)
	bestKi := 1
	for ki := 1; ki <= min(cap, rem); ki++ {
		p := o.factor(i, ki) * o.solve(i+1, ki, rem-ki)
		if p < best {
			best, bestKi = p, ki
		}
	}
	o.val[at] = best
	o.choice[at] = int32(bestKi)
	return best
}

// entry is the oracle's value and composition for j <= k atoms.
func (o *m1Oracle) entry(j int) m1Entry {
	val := o.solve(0, j, j)
	var comp []int
	for i, cap, rem := 0, j, j; rem > 0 && i < o.n; {
		ki := int(o.choice[o.idx(i, cap, rem)])
		comp = append(comp, ki)
		i, cap, rem = i+1, ki, rem-ki
	}
	return m1Entry{val: val, comp: comp}
}

// m1OracleCompute is the oracle's MINIMIZE1 of hist with exactly j atoms.
func m1OracleCompute(hist []int, j int) m1Entry {
	var o m1Oracle
	o.reset(hist, j)
	return o.entry(j)
}

func TestM1ComputeHandValues(t *testing.T) {
	cases := []struct {
		hist []int
		j    int
		want float64
	}{
		{[]int{2, 2, 1}, 0, 1},
		{[]int{2, 2, 1}, 1, 3.0 / 5}, // avoid flu
		{[]int{2, 2, 1}, 2, 1.0 / 5}, // one person avoids flu+lung
		{[]int{2, 2, 1}, 3, 0},       // one person avoids everything
		{[]int{2, 1, 1, 1}, 1, 3.0 / 5},
		// Two persons both avoiding the top value, (3/5)(2/4) = 3/10,
		// beats one person avoiding the top two values, (5-3)/5 = 2/5.
		{[]int{2, 1, 1, 1}, 2, 3.0 / 10},
		{[]int{1, 1, 1, 1}, 1, 3.0 / 4},
		{[]int{1, 1, 1, 1}, 2, 1.0 / 2}, // (4-2)/4 ties (3/4)(2/3)
		{[]int{1, 1, 1, 1}, 3, 1.0 / 4}, // (4-3)/4
		{[]int{1, 1, 1, 1}, 4, 0},
		{[]int{5}, 1, 0}, // single value: any negation kills it
		{[]int{3}, 0, 1},
		{[]int{1}, 1, 0},
	}
	for _, c := range cases {
		got := m1Compute(c.hist, c.j)
		if math.Abs(got.val-c.want) > eps {
			t.Errorf("m1Compute(%v, %d) = %v, want %v", c.hist, c.j, got.val, c.want)
		}
	}
}

func TestM1ComputeComposition(t *testing.T) {
	// hist {2,2,1}, j=2: the minimizing composition is one person with both
	// atoms (prob 1/5 beats two persons' 3/10).
	e := m1Compute([]int{2, 2, 1}, 2)
	if len(e.comp) != 1 || e.comp[0] != 2 {
		t.Errorf("comp = %v, want [2]", e.comp)
	}
	// Compositions are descending and sum to at most j.
	e = m1Compute([]int{3, 2, 2, 1}, 5)
	sum := 0
	for i, k := range e.comp {
		sum += k
		if i > 0 && e.comp[i-1] < k {
			t.Errorf("composition not descending: %v", e.comp)
		}
	}
	if sum > 5 {
		t.Errorf("composition oversubscribed: %v", e.comp)
	}
}

// checkM1MatchesOracle asserts that m1Row(hist, K) for every K <= maxK,
// and m1Compute(hist, j) for every j <= maxK, are bit-identical to the
// recursive oracle, compositions included.
func checkM1MatchesOracle(t *testing.T, o *m1Oracle, hist []int, maxK int) {
	t.Helper()
	o.reset(hist, maxK)
	want := make([]m1Entry, maxK+1)
	for j := range want {
		want[j] = o.entry(j)
	}
	for j, w := range want {
		got := m1Compute(hist, j)
		if math.Float64bits(got.val) != math.Float64bits(w.val) || !slices.Equal(got.comp, w.comp) {
			t.Fatalf("m1Compute(%v, %d) = %v %v, oracle %v %v", hist, j, got.val, got.comp, w.val, w.comp)
		}
	}
	for k := 0; k <= maxK; k++ {
		row := m1Row(hist, k)
		if len(row) != k+1 {
			t.Fatalf("m1Row(%v, %d) has %d entries", hist, k, len(row))
		}
		for j, got := range row {
			if math.Float64bits(got) != math.Float64bits(want[j].val) {
				t.Fatalf("m1Row(%v, %d)[%d] = %v, oracle %v", hist, k, j, got, want[j].val)
			}
		}
	}
}

// TestM1MatchesOracle pins the bottom-up MINIMIZE1 table to the recursive
// oracle: every row entry and every m1Compute value bit for bit, every
// composition equal. It covers every non-increasing histogram of at most
// 20 persons at every K <= 16, then seeded random histograms up to K = 40.
func TestM1MatchesOracle(t *testing.T) {
	var o m1Oracle
	hists := 0
	// partitions calls visit on every non-increasing histogram of total
	// n whose counts are at most top, extending hist.
	var partitions func(hist []int, n, top int)
	partitions = func(hist []int, n, top int) {
		if n == 0 {
			checkM1MatchesOracle(t, &o, hist, 16)
			hists++
			return
		}
		for c := min(n, top); c >= 1; c-- {
			partitions(append(hist, c), n-c, c)
		}
	}
	for n := 1; n <= 20; n++ {
		partitions(nil, n, n)
	}
	if hists != 2713 {
		t.Fatalf("visited %d histograms, want the 2713 partitions of 1..20", hists)
	}

	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 300; iter++ {
		hist := randomHistogram(rng, 1+rng.Intn(15), 1+rng.Intn(40))
		checkM1MatchesOracle(t, &o, hist, rng.Intn(41))
	}
}

// BenchmarkM1Row builds MINIMIZE1 rows for a fixed seeded set of
// histograms over up to 14 values (Adult's occupation domain) at K = 5,
// the serving width for k <= 4, and K = 12, fig6's width at k = 11. Each
// row allocates only itself.
func BenchmarkM1Row(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	hists := make([][]int, 256)
	for i := range hists {
		hists[i] = randomHistogram(rng, 1+rng.Intn(14), 1+rng.Intn(100))
	}
	for _, k := range []int{5, 12} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				sinkRow = m1Row(hists[i%len(hists)], k)
			}
		})
	}
}

var sinkRow []float64

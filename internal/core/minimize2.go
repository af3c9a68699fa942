package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"ckprivacy/internal/bucket"
)

// Options tunes the disclosure computation.
type Options struct {
	// ForbidSameBucketAntecedent restricts the adversary's implications to
	// antecedent atoms in buckets other than the consequent's bucket. The
	// unrestricted maximum (the paper's actual definition) is computed when
	// false. The restriction exists to reproduce the paper's §2.3 worked
	// example, whose quoted 10/19 is the cross-bucket maximum — see
	// "Deviations from the paper" in docs/PAPER-MAP.md.
	ForbidSameBucketAntecedent bool
}

// m2choice is the decision recorded for one MINIMIZE2 DP state: how many
// antecedent atoms go into this bucket and whether A does too.
type m2choice struct {
	cnt       int  // antecedent atoms placed in this bucket
	placeHere bool // whether A is placed in this bucket
	valid     bool
}

// m2Scratch holds MINIMIZE2's working set in flat pooled slices: the
// per-bucket MINIMIZE1 rows, the histogram dedupe index, and the DP tables
// over states (i, h, placed) with i <= nb and h <= k. Callers that walk the
// choice table (witness reconstruction) keep the scratch until they are
// done, then release it.
type m2Scratch struct {
	val    []float64
	choice []m2choice
	k      int

	// rows holds u_i[j] = MINIMIZE1(hist_i, j) for j < width, row-major.
	rows  []float64
	width int
	// first maps a histogram prefix hash to the first bucket of this call
	// carrying it, whose row later equal histograms copy.
	first map[uint64]int
}

var m2Pool = sync.Pool{New: func() any { return &m2Scratch{first: make(map[uint64]int)} }}

// growRows sizes the row table for nb buckets of atom counts 0..width-1
// and empties the dedupe index.
func (sc *m2Scratch) growRows(nb, width int) {
	n := nb * width
	if cap(sc.rows) < n {
		sc.rows = make([]float64, n)
	}
	sc.rows = sc.rows[:n]
	sc.width = width
	clear(sc.first)
}

// grow sizes the rows (atom counts 0..k+1) and the DP tables for nb buckets
// and k atoms. The bottom-up DP writes every state before reading it, so
// nothing is cleared.
func (sc *m2Scratch) grow(nb, k int) {
	sc.growRows(nb, k+2)
	states := (nb + 1) * (k + 1) * 2
	if cap(sc.val) < states {
		sc.val = make([]float64, states)
		sc.choice = make([]m2choice, states)
	}
	sc.val = sc.val[:states]
	sc.choice = sc.choice[:states]
	sc.k = k
}

// idx flattens (i, h, pi).
func (sc *m2Scratch) idx(i, h, pi int) int {
	return (i*(sc.k+1)+h)*2 + pi
}

// choiceAt returns the recorded choice for state (i, h, pi).
func (sc *m2Scratch) choiceAt(i, h, pi int) m2choice {
	return sc.choice[sc.idx(i, h, pi)]
}

// row returns bucket i's MINIMIZE1 row.
func (sc *m2Scratch) row(i int) []float64 {
	return sc.rows[i*sc.width : (i+1)*sc.width]
}

// release returns the scratch to the pool.
func (sc *m2Scratch) release() { m2Pool.Put(sc) }

// fillRow fetches bucket i's MINIMIZE1 row u_i[0..width-1] into the row
// table and returns it. A bucket whose histogram equals an earlier
// bucket's (rows are filled in bucket order) copies that row without
// touching the memo; a prefix-hash match is verified element-wise, so a
// 64-bit collision costs a lookup, never a wrong row. Otherwise the
// histogram costs one memo lookup, which its hash keys.
func (e *Engine) fillRow(sc *m2Scratch, views []bucketView, i int) []float64 {
	u := sc.row(i)
	hist := views[i].hist
	p := histPrefix(hist)
	if f, ok := sc.first[p]; !ok {
		sc.first[p] = i
	} else if slices.Equal(views[f].hist, hist) {
		copy(u, sc.row(f))
		return u
	}
	copy(u, e.row(p, hist, len(u)))
	return u
}

// noStop is a minimize2 stop threshold above every disclosure: the kernel
// runs to the exact minimum.
const noStop = 2

// minimize2 minimizes Formula (1) over all placements of the k antecedent
// atoms and the consequent atom A across buckets, returning the minimum and
// the DP scratch whose choice tables drive witness reconstruction. The
// caller must release() the scratch when done with it.
//
// A row pass fetches every bucket's MINIMIZE1 row u_i[0..k+1] once, one
// memo lookup per distinct histogram; a bottom-up DP over (i, h, placed)
// then reads only the rows. Its loop order (cnt ascending, A elsewhere
// before A here), strict < tie-break and multiplication order are those
// of the paper's recursion, so values and choices are bit-identical to it
// (minimize2Oracle in the tests). A state's value does not depend on k,
// nor does the base case read it, so the finished tables also hold every
// k' < k's minimum at its own root (0, k', false), which Series reads.
//
// stop is a disclosure threshold for yes/no callers. Without
// ForbidSameBucketAntecedent, placing A and all k antecedents in bucket i
// is one of the DP's candidates, with ratio r_i = u_i[k+1]·n_i/top_i and
// every other factor on its path exactly 1, so the float minimum is <= r_i
// and, 1/(1+r) being monotone, the maximum disclosure is >=
// disclosureFromRatio(r_i). When that already reaches stop, the row pass
// returns r_i at once, leaving the DP tables unfilled: the caller's
// disclosureFromRatio(r) < stop is then false, exactly as for the full
// minimum. Pass noStop to always get the minimum.
//
// Against the paper's Algorithm 2 pseudocode, two typos are corrected (see
// "Deviations from the paper" in docs/PAPER-MAP.md): the base case returns
// 1 on success (not the initialized rmin = ∞), and the initial "A already
// placed" flag is false.
//
//ckvet:ignore poolleak ownership transfers to the caller, which must release() on every return, the early exit included; the scratch's choice tables drive witness reconstruction after return
func (e *Engine) minimize2(views []bucketView, k int, opt Options, stop float64) (float64, *m2Scratch) {
	nb := len(views)
	sc := m2Pool.Get().(*m2Scratch)
	sc.grow(nb, k)
	for i := range views {
		u := e.fillRow(sc, views, i)
		// The decision exit; under ForbidSameBucketAntecedent the all-in-one
		// placement is not a candidate.
		if r := u[k+1] * views[i].ratio(); !opt.ForbidSameBucketAntecedent && disclosureFromRatio(r) >= stop {
			return r, sc
		}
	}

	// Base case i = nb: any unplaced antecedent atoms are spent on
	// tautologies, which impose no constraint (factor 1); A never placed is
	// infeasible.
	for h := 0; h <= k; h++ {
		sc.val[sc.idx(nb, h, 0)] = math.Inf(1)
		sc.val[sc.idx(nb, h, 1)] = 1
	}
	for i := nb - 1; i >= 0; i-- {
		u := sc.row(i)
		ratio := views[i].ratio()
		for h := 0; h <= k; h++ {
			for pi := 0; pi < 2; pi++ {
				best := math.Inf(1)
				var bestChoice m2choice
				for cnt := 0; cnt <= h; cnt++ {
					// Option 1: A is not in this bucket.
					if cand := u[cnt] * sc.val[sc.idx(i+1, h-cnt, pi)]; cand < best {
						best = cand
						bestChoice = m2choice{cnt: cnt, placeHere: false, valid: true}
					}
					// Option 2: A is in this bucket (with cnt local antecedents).
					if pi == 0 && (!opt.ForbidSameBucketAntecedent || cnt == 0) {
						w := u[cnt+1] * ratio
						if cand := w * sc.val[sc.idx(i+1, h-cnt, 1)]; cand < best {
							best = cand
							bestChoice = m2choice{cnt: cnt, placeHere: true, valid: true}
						}
					}
				}
				at := sc.idx(i, h, pi)
				sc.val[at] = best
				sc.choice[at] = bestChoice
			}
		}
	}
	return sc.val[sc.idx(0, k, 0)], sc
}

// MaxDisclosure computes the maximum disclosure of the bucketization with
// respect to L^k_basic (Definition 6) in O(|B|·k³) time.
func (e *Engine) MaxDisclosure(bz *bucket.Bucketization, k int) (float64, error) {
	return e.MaxDisclosureOpt(bz, k, Options{})
}

// MaxDisclosureOpt is MaxDisclosure with Options.
func (e *Engine) MaxDisclosureOpt(bz *bucket.Bucketization, k int, opt Options) (float64, error) {
	if err := checkArgs(bz, k); err != nil {
		return 0, err
	}
	rmin, sc := e.minimize2(makeViews(bz), k, opt, noStop)
	sc.release()
	return disclosureFromRatio(rmin), nil
}

// disclosureFromRatio converts min Formula (1) to the maximum disclosure
// 1/(1 + r).
func disclosureFromRatio(r float64) float64 {
	if math.IsInf(r, 1) {
		// No valid placement (possible only under restrictive Options);
		// the adversary learns nothing beyond the k=0 baseline, which the
		// caller gets by placing A alone — this branch is unreachable for
		// non-empty bucketizations because cnt=0 placements always exist.
		return 0
	}
	return 1 / (1 + r)
}

func checkArgs(bz *bucket.Bucketization, k int) error {
	if bz == nil || len(bz.Buckets) == 0 {
		return fmt.Errorf("core: empty bucketization")
	}
	if k < 0 {
		return fmt.Errorf("core: negative knowledge bound k = %d", k)
	}
	for i, b := range bz.Buckets {
		if b.Size() == 0 {
			return fmt.Errorf("core: bucket %d is empty", i)
		}
	}
	return nil
}

// MaxDisclosure is a convenience wrapper using a throwaway engine.
func MaxDisclosure(bz *bucket.Bucketization, k int) (float64, error) {
	return NewEngine().MaxDisclosure(bz, k)
}

// Series computes the maximum disclosure for every k in 0..maxK (the
// Figure 5 and 6 workloads) from one row pass and one MINIMIZE2 run at
// maxK, reading each k's answer from its own root; every value is
// bit-identical to MaxDisclosure(bz, k).
func (e *Engine) Series(bz *bucket.Bucketization, maxK int) ([]float64, error) {
	if err := checkArgs(bz, maxK); err != nil {
		return nil, err
	}
	_, sc := e.minimize2(makeViews(bz), maxK, Options{}, noStop)
	defer sc.release()
	out := make([]float64, maxK+1)
	for k := range out {
		out[k] = disclosureFromRatio(sc.val[sc.idx(0, k, 0)])
	}
	return out, nil
}

// IsCKSafe reports whether the bucketization is (c,k)-safe (Definition 13):
// maximum disclosure with respect to L^k_basic strictly below the threshold
// c. The answer is bit-for-bit MaxDisclosure(bz, k) < c, but the kernel
// stops at the first bucket that alone already reaches c (see minimize2).
// The comparison is a strict float64 inequality; thresholds within
// round-off (~1e-15 relative) of the true maximum may be classified either
// way.
func (e *Engine) IsCKSafe(bz *bucket.Bucketization, c float64, k int) (bool, error) {
	if c < 0 || c > 1 {
		return false, fmt.Errorf("core: threshold c = %v outside [0, 1]", c)
	}
	if err := checkArgs(bz, k); err != nil {
		return false, err
	}
	r, sc := e.minimize2(makeViews(bz), k, Options{}, c)
	sc.release()
	return disclosureFromRatio(r) < c, nil
}

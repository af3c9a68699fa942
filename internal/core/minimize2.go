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
// per-class MINIMIZE1 rows and placement weights, the class scan that
// finds them, and the DP's value rows. A DP row holds one bucket's
// states (h, placed), h <= k, at 2h+placed. Answer-only runs keep two
// rolling rows; Witness keeps every bucket's row and its choices.
type m2Scratch struct {
	val    []float64
	choice []m2choice
	k      int

	// rows holds u_c[j] = MINIMIZE1(hist_c, j) for j < width, one row per
	// histogram class c, row-major; weights holds each class's placement
	// weights w_c[cnt] = u_c[cnt+1]·n/top for cnt < width-1, the factor of
	// placing A and cnt antecedents in one of its buckets.
	rows    []float64
	weights []float64
	width   int
	// of is the class of each bucket, from the last complete row pass:
	// the class scan's scratch or a published index, read-only either way.
	of   []int32
	scan bucket.ClassScan
}

var m2Pool = sync.Pool{New: func() any { return new(m2Scratch) }}

// idx flattens (i, h, pi): state (h, pi) of bucket i's row.
func (sc *m2Scratch) idx(i, h, pi int) int {
	return (i*(sc.k+1)+h)*2 + pi
}

// choiceAt returns the recorded choice for state (i, h, pi).
func (sc *m2Scratch) choiceAt(i, h, pi int) m2choice {
	return sc.choice[sc.idx(i, h, pi)]
}

// row returns bucket i's MINIMIZE1 row, its class's.
func (sc *m2Scratch) row(i int) []float64 {
	c := int(sc.of[i])
	return sc.rows[c*sc.width : (c+1)*sc.width]
}

// weight returns bucket i's placement weights, its class's.
func (sc *m2Scratch) weight(i int) []float64 {
	c, w := int(sc.of[i]), sc.width-1
	return sc.weights[c*w : (c+1)*w]
}

// rowPass fetches, for each histogram class of bz in order of first
// appearance, the class's MINIMIZE1 row u[0..width-1] into sc and its
// placement weights u[cnt+1]·n/top, then points sc.of at the class of
// every bucket. A class's row is the one published on its first bucket
// when that row is at least width long (a hit); otherwise m1Row builds it
// at width and publishes it there (a miss). On an indexed bucketization
// the classes come from its index; on a fresh one the class scan
// classifies the buckets, publishing the index once all are classified.
//
// stop is minimize2's decision exit: when a class's all-in-one ratio
// r = u[width-1]·n/top reaches it (disclosureFromRatio(r) >= stop), the
// pass returns r and true at once, leaving sc.of unset and the
// bucketization unindexed. Every bucket of a class shares its r, so the
// pass stops at the same bucket as a walk over every bucket would. Pass
// noStop to run the whole pass.
func (e *Engine) rowPass(sc *m2Scratch, bz *bucket.Bucketization, width int, stop float64) (float64, bool) {
	sc.rows, sc.weights, sc.width = sc.rows[:0], sc.weights[:0], width
	scan := &sc.scan
	scan.Start(bz)
	defer scan.Close()
	for scan.Next() {
		b := scan.Bucket()
		u := b.M1Row(width)
		if u == nil {
			e.misses.Add(1)
			u = m1Row(b.Histogram(), width-1)
			b.PublishM1Row(u)
		} else {
			e.hits.Add(1)
		}
		u = u[:width]
		ratio := float64(b.Size()) / float64(b.TopCount())
		sc.rows = append(sc.rows, u...)
		for _, x := range u[1:] {
			sc.weights = append(sc.weights, x*ratio)
		}
		if stop <= 1 {
			if r := sc.weights[len(sc.weights)-1]; disclosureFromRatio(r) >= stop {
				return r, true
			}
		}
	}
	sc.of = scan.ClassOf()
	return 0, false
}

// noStop is a minimize2 stop threshold above every disclosure: the kernel
// runs to the exact minimum.
const noStop = 2

// minimize2 minimizes Formula (1) over all placements of the k antecedent
// atoms and the consequent atom A across buckets and returns the minimum
// and true. roots, of at most k+1 entries, receives the minimum for each
// h < len(roots) antecedent atoms.
//
// A row pass (rowPass) fetches each histogram class's MINIMIZE1 row
// u[0..k+1] once, one bucket read per distinct histogram; the bottom-up
// DP (dp) then runs on two rolling rows. A state's value does not depend
// on k, nor does the base case read it, so the last row holds every
// k' < k's minimum at its own root (h = k', A not placed), which series
// reads.
//
// stop is a disclosure threshold for yes/no callers. Without
// ForbidSameBucketAntecedent, placing A and all k antecedents in bucket i
// is one of the DP's candidates, with ratio r_i = u_i[k+1]·n_i/top_i and
// every other factor on its path exactly 1, so the float minimum is <= r_i
// and, 1/(1+r) being monotone, the maximum disclosure is >=
// disclosureFromRatio(r_i). When that already reaches stop, the row pass
// returns r_i at once and the DP does not run: minimize2 returns r_i and
// false, leaving roots unset, and the caller's disclosureFromRatio(r) <
// stop is then false, exactly as for the full minimum. Pass noStop to
// always get the minimum.
func (e *Engine) minimize2(bz *bucket.Bucketization, k int, opt Options, stop float64, roots []float64) (float64, bool) {
	sc := m2Pool.Get().(*m2Scratch)
	defer m2Pool.Put(sc)
	if opt.ForbidSameBucketAntecedent {
		// The all-in-one placement is no candidate: never exit.
		stop = noStop
	}
	if r, exited := e.rowPass(sc, bz, k+2, stop); exited {
		return r, false
	}
	root := sc.dp(len(bz.Buckets), k, opt, false)
	for h := range roots {
		roots[h] = root[2*h]
	}
	return root[2*k], true
}

// dp runs MINIMIZE2's bottom-up DP at k over the nb buckets whose rows
// the last row pass left in sc and returns bucket 0's row. With keep, it
// keeps every bucket's row and records each state's choice, for witness
// reconstruction (idx, choiceAt); otherwise it runs on two rolling rows.
//
// Against the paper's Algorithm 2 pseudocode, two typos are corrected (see
// "Deviations from the paper" in docs/PAPER-MAP.md): the base case returns
// 1 on success (not the initialized rmin = ∞), and the initial "A already
// placed" flag is false.
func (sc *m2Scratch) dp(nb, k int, opt Options, keep bool) []float64 {
	width := 2 * (k + 1)
	rows := 2
	if keep {
		rows = nb + 1
		if cap(sc.choice) < nb*width {
			sc.choice = make([]m2choice, nb*width)
		}
		sc.choice = sc.choice[:nb*width]
	}
	if cap(sc.val) < rows*width {
		sc.val = make([]float64, rows*width)
	}
	sc.val = sc.val[:rows*width]
	sc.k = k
	at := func(i int) []float64 {
		if !keep {
			i &= 1
		}
		return sc.val[i*width : (i+1)*width]
	}

	// Base case i = nb: any unplaced antecedent atoms are spent on
	// tautologies, which impose no constraint (factor 1); A never placed is
	// infeasible.
	base := at(nb)
	for h := 0; h <= k; h++ {
		base[2*h] = math.Inf(1)
		base[2*h+1] = 1
	}
	for i := nb - 1; i >= 0; i-- {
		var choice []m2choice
		if keep {
			choice = sc.choice[i*width : (i+1)*width]
		}
		step(sc.row(i)[:k+1], sc.weight(i)[:k+1], at(i+1), at(i), choice, opt.ForbidSameBucketAntecedent)
	}
	return at(0)
}

// step is MINIMIZE2's transition for one bucket: it fills cur, the
// bucket's DP row, from next, the row of the bucket after it, given the
// bucket's MINIMIZE1 row u[0..k] and placement weights w[0..k]. Its loop
// order (cnt ascending, A elsewhere before A here), strict < tie-break
// and multiplication order are those of the paper's recursion, so values
// and choices are bit-identical to it (minimize2Oracle in the tests).
// choice, when non-nil, receives each state's decision.
func step(u, w, next, cur []float64, choice []m2choice, forbid bool) {
	next = next[:2*len(u)]
	cur = cur[:2*len(u)]
	w = w[:len(u)]
	for h := range u {
		// A already placed: only this bucket's antecedents.
		best, cnt1 := math.Inf(1), -1
		for cnt := 0; cnt <= h; cnt++ {
			if cand := u[cnt] * next[2*(h-cnt)+1]; cand < best {
				best, cnt1 = cand, cnt
			}
		}
		cur[2*h+1] = best

		// A not placed yet: A elsewhere (option 1) or here (option 2),
		// with cnt local antecedents.
		best, cnt0, here := math.Inf(1), -1, false
		for cnt := 0; cnt <= h; cnt++ {
			rest := 2 * (h - cnt)
			if cand := u[cnt] * next[rest]; cand < best {
				best, cnt0, here = cand, cnt, false
			}
			if !forbid || cnt == 0 {
				if cand := w[cnt] * next[rest+1]; cand < best {
					best, cnt0, here = cand, cnt, true
				}
			}
		}
		cur[2*h] = best

		if choice != nil {
			choice[2*h] = m2choice{cnt: max(cnt0, 0), placeHere: here, valid: cnt0 >= 0}
			choice[2*h+1] = m2choice{cnt: max(cnt1, 0), valid: cnt1 >= 0}
		}
	}
}

// MaxDisclosure computes the maximum disclosure of the bucketization with
// respect to L^k_basic (Definition 6) in O(|B|·k³) time, or reads it from
// the bucketization's published series (see MaxDisclosureOpt).
func (e *Engine) MaxDisclosure(bz *bucket.Bucketization, k int) (float64, error) {
	return e.MaxDisclosureOpt(bz, k, Options{})
}

// MaxDisclosureOpt is MaxDisclosure with Options. A bucketization never
// changes, so its answers at every k are fixed: the first call at a k the
// bucketization's published series for opt does not cover runs MINIMIZE2
// once and publishes the whole series d[0..k] (series), and every later
// call at any k' <= k reads d[k'] without touching a bucket.
// Each published value is bit-identical to a run at its own k.
func (e *Engine) MaxDisclosureOpt(bz *bucket.Bucketization, k int, opt Options) (float64, error) {
	if err := checkShape(bz, k); err != nil {
		return 0, err
	}
	if d := bz.DisclosureSeries(opt.variant()); k < len(d) {
		return d[k], nil
	}
	d, err := e.series(bz, k, opt)
	if err != nil {
		return 0, err
	}
	return d[k], nil
}

// variant is the slot of opt's disclosure series on a bucketization.
func (opt Options) variant() int {
	if opt.ForbidSameBucketAntecedent {
		return 1
	}
	return 0
}

// series computes the maximum disclosure under opt for every k in 0..maxK
// (see seriesOrExit) and returns the published series. The returned slice
// is the published one: callers must not modify it.
func (e *Engine) series(bz *bucket.Bucketization, maxK int, opt Options) ([]float64, error) {
	if err := checkBuckets(bz); err != nil {
		return nil, err
	}
	d, _ := e.seriesOrExit(bz, maxK, opt, noStop)
	return d, nil
}

// seriesOrExit runs one row pass and one MINIMIZE2 run at maxK under opt
// with minimize2's decision exit at stop. When the DP runs, it reads every
// k <= maxK's maximum disclosure from its own root, publishes the series
// on bz and returns it. A state's value does not depend on the k the
// tables were sized for, under either Options (the restriction only
// removes candidates), so every value is bit-identical to a run at its
// own k. After a decision exit it returns nil and the exit's ratio, whose
// disclosure reaches stop.
func (e *Engine) seriesOrExit(bz *bucket.Bucketization, maxK int, opt Options, stop float64) ([]float64, float64) {
	d := make([]float64, maxK+1)
	r, complete := e.minimize2(bz, maxK, opt, stop, d)
	if !complete {
		return nil, r
	}
	for k, r := range d {
		d[k] = disclosureFromRatio(r)
	}
	bz.PublishDisclosureSeries(opt.variant(), d)
	return d, 0
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

// checkArgs validates a disclosure call's arguments: checkShape's O(1)
// checks and checkBuckets' walk over every bucket.
func checkArgs(bz *bucket.Bucketization, k int) error {
	if err := checkShape(bz, k); err != nil {
		return err
	}
	return checkBuckets(bz)
}

// checkShape rejects an empty bucketization and a negative k. It is all a
// read from a published series needs: a series is published only after
// checkBuckets passed on the same buckets.
func checkShape(bz *bucket.Bucketization, k int) error {
	if bz == nil || len(bz.Buckets) == 0 {
		return fmt.Errorf("core: empty bucketization")
	}
	if k < 0 {
		return fmt.Errorf("core: negative knowledge bound k = %d", k)
	}
	return nil
}

// checkBuckets rejects a bucketization with an empty bucket.
func checkBuckets(bz *bucket.Bucketization) error {
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

// Series returns the maximum disclosure for every k in 0..maxK (the
// Figure 5 and 6 workloads): a copy of the bucketization's published
// series when it covers maxK, and otherwise the series of one row pass and
// one MINIMIZE2 run at maxK, which it publishes. Every value is
// bit-identical to MaxDisclosure(bz, k).
func (e *Engine) Series(bz *bucket.Bucketization, maxK int) ([]float64, error) {
	if err := checkShape(bz, maxK); err != nil {
		return nil, err
	}
	d := bz.DisclosureSeries(Options{}.variant())
	if maxK >= len(d) {
		var err error
		if d, err = e.series(bz, maxK, Options{}); err != nil {
			return nil, err
		}
	}
	return slices.Clone(d[:maxK+1]), nil
}

// IsCKSafe reports whether the bucketization is (c,k)-safe (Definition 13):
// maximum disclosure with respect to L^k_basic strictly below the threshold
// c. The answer is bit-for-bit MaxDisclosure(bz, k) < c. When the
// bucketization's published series covers k, it is read from there;
// otherwise the kernel stops at the first bucket that alone already
// reaches c (see minimize2). An early exit leaves the maximum unknown and
// publishes nothing; a kernel that runs to the end holds the whole series
// d[0..k], and publishes it as MaxDisclosure would. The comparison is a
// strict float64 inequality; thresholds within round-off (~1e-15
// relative) of the true maximum may be classified either way.
func (e *Engine) IsCKSafe(bz *bucket.Bucketization, c float64, k int) (bool, error) {
	if !(c >= 0 && c <= 1) { // NaN fails too
		return false, fmt.Errorf("core: threshold c = %v outside [0, 1]", c)
	}
	if err := checkShape(bz, k); err != nil {
		return false, err
	}
	if d := bz.DisclosureSeries(Options{}.variant()); k < len(d) {
		return d[k] < c, nil
	}
	if err := checkBuckets(bz); err != nil {
		return false, err
	}
	d, r := e.seriesOrExit(bz, k, Options{}, c)
	if d == nil {
		return disclosureFromRatio(r) < c, nil
	}
	return d[k] < c, nil
}

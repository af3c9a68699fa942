package core

import (
	"fmt"
	"math"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/parallel"
)

// This file extends the paper's worst-case machinery to a *fixed* target
// atom — "what is the worst-case posterior for THIS value of THIS bucket's
// members?" — and, on top of it, to the cost-based disclosure the paper
// lists as future work (§6: "not all disclosures are equally bad").
//
// The reduction to common-consequent simple implications remains exact for
// a fixed target: Lemmas 10 and 11 hold for an arbitrary fixed consequent
// atom, so max_{φ∈L^k} Pr(A | B ∧ φ) is attained by k simple implications
// A_i → A, and equals 1/(1 + min Pr(¬A ∧ ∧¬A_i | B)/Pr(A | B)).
//
// What changes is MINIMIZE1 inside the target's bucket: one person (the
// target p) is forced to avoid a set that contains the target value s,
// which need not be among the bucket's most frequent values. The DP below
// minimizes over nested ⊇-chains of avoid-sets, where each set is either a
// frequency prefix (possibly augmented with the target value's rank r) or
// a plain prefix below the chain's r-carrying sets:
//
//	prefix_c (c ≥ r+1)  ⊇ … ⊇  prefix_{c-1}∪{rank r} (c ≤ r)  ⊇ … ⊇  prefix_c' (c' < chain min)
//
// Nesting keeps Lemma 12's product formula exact (each later person's
// avoided values retain full multiplicity). Optimality of nested chains is
// not proved in the paper (the unweighted optimum, a prefix chain, is
// nested); it is validated against the exact oracle on randomized
// instances in targeted_test.go.

// targetedKey indexes the targeted MINIMIZE1 DP: person index, maximum
// allowed size for the next set, the type of the previous set, remaining
// atoms, and whether an r-carrying set has been placed.
type targetedKey struct {
	i, cap, rem int
	mode        int8
	haveR       bool
}

const (
	modeStart int8 = iota // no set placed yet
	modeBig               // pure prefix of size ≥ r+1 (contains rank r)
	modeRSet              // prefix_{c-1} ∪ {rank r}, size c ≤ r
	modeSmall             // pure prefix of size ≤ r (no rank r)
)

// targetedM1 minimizes Pr(∧ ¬atoms | B) over j atoms in one bucket subject
// to: the atoms form a nested chain of avoid-sets and at least one set
// contains the value at rank r. For r = 0 every nonempty prefix contains
// the rank, and the computation coincides with plain MINIMIZE1.
func targetedM1(hist []int, r, j int) float64 {
	if r == 0 {
		if j == 0 {
			return math.Inf(1) // the forced ¬A cannot be placed
		}
		return m1Compute(hist, j).val
	}
	n := 0
	prefix := make([]int, len(hist)+1)
	for i, c := range hist {
		n += c
		prefix[i+1] = prefix[i] + c
	}
	pf := func(c int) int { // prefix mass, saturating
		if c >= len(prefix) {
			return n
		}
		return prefix[c]
	}
	mass := func(mode int8, c int) int {
		if mode == modeRSet {
			return pf(c-1) + hist[r]
		}
		return pf(c)
	}
	factor := func(i, m int) float64 {
		num := n - i - m
		if num <= 0 {
			return 0
		}
		return float64(num) / float64(n-i)
	}

	memo := make(map[targetedKey]float64)
	var rec func(i, cap, rem int, mode int8, haveR bool) float64
	rec = func(i, cap, rem int, mode int8, haveR bool) float64 {
		if rem == 0 || i >= n {
			if haveR {
				return 1 // leftovers are duplicate atoms
			}
			return math.Inf(1) // ¬A was never placed
		}
		key := targetedKey{i: i, cap: cap, rem: rem, mode: mode, haveR: haveR}
		if v, ok := memo[key]; ok {
			return v
		}
		best := math.Inf(1)
		maxSize := cap
		if rem < maxSize {
			maxSize = rem
		}
		for c := 1; c <= maxSize; c++ {
			// Pure prefix of size ≥ r+1: carries the rank; only before any
			// r-set or small prefix.
			if c >= r+1 && (mode == modeStart || mode == modeBig) {
				p := factor(i, mass(modeBig, c)) * rec(i+1, c, rem-c, modeBig, true)
				if p < best {
					best = p
				}
			}
			if c <= r {
				// r-set prefix_{c-1} ∪ {rank r}: after start, big or r-set.
				if mode != modeSmall {
					p := factor(i, mass(modeRSet, c)) * rec(i+1, c, rem-c, modeRSet, true)
					if p < best {
						best = p
					}
				}
				// Small pure prefix: allowed anywhere, but after an r-set
				// of size c' it must fit inside prefix_{c'-1}, i.e. have
				// size ≤ c'-1 — encoded by shrinking cap on entry.
				smallCap := c
				ok := true
				switch mode {
				case modeRSet:
					ok = c <= cap-1
				default:
					ok = c <= cap
				}
				if ok {
					p := factor(i, mass(modeSmall, c)) * rec(i+1, smallCap, rem-c, modeSmall, haveR)
					if p < best {
						best = p
					}
				}
			}
		}
		memo[key] = best
		return best
	}
	return rec(0, j, j, modeStart, false)
}

// restTables precomputes, for a bucketization, the minimal MINIMIZE1
// products over bucket prefixes and suffixes, so that the best distribution
// of h antecedent atoms over "all buckets except b" is available in O(k)
// per query (used by the per-target sweep).
type restTables struct {
	fwd [][]float64 // fwd[i][h]: buckets [0, i)
	bwd [][]float64 // bwd[i][h]: buckets [i, len)
	k   int
}

func (e *Engine) buildRest(bz *bucket.Bucketization, k int) *restTables {
	nb := len(bz.Buckets)
	// The MINIMIZE2 kernel's row pass supplies u_i[c] = MINIMIZE1(hist_i, c)
	// for c <= k, one memo lookup per distinct histogram.
	sc := m2Pool.Get().(*m2Scratch)
	defer m2Pool.Put(sc)
	e.rowPass(sc, bz, k+1, noStop)

	fwd := make([][]float64, nb+1)
	bwd := make([][]float64, nb+1)
	for i := range fwd {
		fwd[i] = make([]float64, k+1)
		bwd[i] = make([]float64, k+1)
	}
	for h := 0; h <= k; h++ {
		fwd[0][h] = 1 // leftover atoms are spent on tautologies
		bwd[nb][h] = 1
	}
	for i := 0; i < nb; i++ {
		u := sc.row(i)
		for h := 0; h <= k; h++ {
			best := math.Inf(1)
			for c := 0; c <= h; c++ {
				if p := fwd[i][h-c] * u[c]; p < best {
					best = p
				}
			}
			fwd[i+1][h] = best
		}
	}
	for i := nb - 1; i >= 0; i-- {
		u := sc.row(i)
		for h := 0; h <= k; h++ {
			best := math.Inf(1)
			for c := 0; c <= h; c++ {
				if p := bwd[i+1][h-c] * u[c]; p < best {
					best = p
				}
			}
			bwd[i][h] = best
		}
	}
	return &restTables{fwd: fwd, bwd: bwd, k: k}
}

// rest returns the minimal product for distributing h atoms over all
// buckets except index b.
func (t *restTables) rest(b, h int) float64 {
	best := math.Inf(1)
	for h1 := 0; h1 <= h; h1++ {
		if p := t.fwd[b][h1] * t.bwd[b+1][h-h1]; p < best {
			best = p
		}
	}
	return best
}

// targetedRatio returns min Formula (1) for the fixed target (bucket index
// b, frequency rank r) using precomputed rest tables.
func (e *Engine) targetedRatio(views []bucketView, t *restTables, b, r, k int) float64 {
	v := views[b]
	ratio := float64(v.n) / float64(v.hist[r])
	best := math.Inf(1)
	for local := 0; local <= k; local++ {
		lp := targetedM1(v.hist, r, local+1)
		if lp == 0 {
			return 0
		}
		if p := lp * ratio * t.rest(b, k-local); p < best {
			best = p
		}
	}
	return best
}

// TargetedMaxDisclosure computes max Pr(t_p[S] = value | B ∧ φ) over
// φ ∈ L^k_basic for a fixed target: any person p of bucket bucketIdx (all
// its members are symmetric) and the given sensitive value. The value must
// occur in the bucket (otherwise the probability is identically 0 and the
// function returns 0).
func (e *Engine) TargetedMaxDisclosure(bz *bucket.Bucketization, bucketIdx int, value string, k int) (float64, error) {
	if err := checkArgs(bz, k); err != nil {
		return 0, err
	}
	if bucketIdx < 0 || bucketIdx >= len(bz.Buckets) {
		return 0, fmt.Errorf("core: bucket index %d out of range", bucketIdx)
	}
	b := bz.Buckets[bucketIdx]
	rank := -1
	for i := range b.Histogram() {
		if b.Value(i) == value {
			rank = i
			break
		}
	}
	if rank < 0 {
		return 0, nil // value absent: Pr(t_p=value | B) = 0 under any knowledge
	}
	views := makeViews(bz)
	t := e.buildRest(bz, k)
	return disclosureFromRatio(e.targetedRatio(views, t, bucketIdx, rank, k)), nil
}

// Risk is one entry of a per-target risk profile.
type Risk struct {
	// BucketIdx identifies the bucket (all members share the risk).
	BucketIdx int
	// Value is the sensitive value.
	Value string
	// Disclosure is the worst-case posterior for "member has Value".
	Disclosure float64
}

// RiskProfile computes TargetedMaxDisclosure for every (bucket, value)
// pair with the value present in the bucket, sharing all DP state across
// targets. Entries follow bucket order, then the bucket's frequency order.
// The per-target DPs run on up to `workers` goroutines (workers <= 0 means
// one per CPU core): the shared rest tables are built once up front and
// each target's own DP is independent, so the profile is identical at
// every worker count in content and order.
func (e *Engine) RiskProfile(bz *bucket.Bucketization, k, workers int) ([]Risk, error) {
	if err := checkArgs(bz, k); err != nil {
		return nil, err
	}
	views := makeViews(bz)
	t := e.buildRest(bz, k)
	type target struct{ bi, r int }
	var targets []target
	for bi, v := range views {
		for r := range v.hist {
			targets = append(targets, target{bi: bi, r: r})
		}
	}
	out := make([]Risk, len(targets))
	err := parallel.ForEach(workers, len(targets), func(i int) error {
		tg := targets[i]
		d := disclosureFromRatio(e.targetedRatio(views, t, tg.bi, tg.r, k))
		out[i] = Risk{BucketIdx: tg.bi, Value: views[tg.bi].b.Value(tg.r), Disclosure: d}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WeightFunc assigns a sensitivity weight in [0, 1] to each sensitive
// value ("cost-based disclosure": a cancer diagnosis may be graver than a
// flu). Missing values default to weight 1 via ConstWeight.
type WeightFunc func(value string) float64

// ConstWeight weights every value equally.
func ConstWeight(w float64) WeightFunc { return func(string) float64 { return w } }

// WeightedMaxDisclosure computes max_{p,s,φ} w(s) · Pr(t_p[S]=s | B ∧ φ)
// over φ ∈ L^k_basic — the cost-based disclosure of the paper's §6. With
// ConstWeight(1) it coincides with MaxDisclosure (a property test asserts
// this).
func (e *Engine) WeightedMaxDisclosure(bz *bucket.Bucketization, k int, w WeightFunc) (float64, error) {
	if w == nil {
		return 0, fmt.Errorf("core: nil weight function")
	}
	profile, err := e.RiskProfile(bz, k, 1)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, r := range profile {
		wt := w(r.Value)
		if !(wt >= 0 && wt <= 1) { // NaN fails too
			return 0, fmt.Errorf("core: weight %v for %q outside [0, 1]", wt, r.Value)
		}
		if d := wt * r.Disclosure; d > best {
			best = d
		}
	}
	return best, nil
}

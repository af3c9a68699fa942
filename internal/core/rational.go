package core

import (
	"fmt"
	"math/big"

	"ckprivacy/internal/bucket"
)

// This file provides exact rational-arithmetic variants of the disclosure
// computation. The float64 DP is subject to ~1 ulp of round-off, which can
// flip a strict (c,k)-safety comparison when the threshold coincides with
// the true maximum (see IsCKSafe); the exact variants decide such
// boundaries correctly at a constant-factor cost in time and allocation.

// m1Key indexes the exact DP's states: person index i, upper bound cap on
// this person's atom count, and rem atoms still to place. (The float path
// uses flat pooled tables; the exact path keeps the simple map.)
type m1Key struct{ i, cap, rem int }

// ratInf is the +∞ sentinel: a nil *big.Rat.
func ratLess(a, b *big.Rat) bool {
	if b == nil {
		return a != nil
	}
	if a == nil {
		return false
	}
	return a.Cmp(b) < 0
}

// m1ComputeRat is m1Compute over exact rationals (value only; witness
// reconstruction stays in the float path).
func m1ComputeRat(hist []int, j int) *big.Rat {
	n := 0
	prefix := make([]int, len(hist)+1)
	for i, c := range hist {
		n += c
		prefix[i+1] = prefix[i] + c
	}
	one := big.NewRat(1, 1)
	if j == 0 {
		return one
	}
	factor := func(i, ki int) *big.Rat {
		pf := prefix[len(prefix)-1]
		if ki < len(prefix)-1 {
			pf = prefix[ki]
		}
		num := n - i - pf
		if num <= 0 {
			return new(big.Rat)
		}
		return big.NewRat(int64(num), int64(n-i))
	}
	memo := make(map[m1Key]*big.Rat)
	var rec func(i, cap, rem int) *big.Rat
	rec = func(i, cap, rem int) *big.Rat {
		if rem == 0 || i >= n {
			return one
		}
		key := m1Key{i, cap, rem}
		if v, ok := memo[key]; ok {
			return v
		}
		var best *big.Rat
		maxKi := cap
		if rem < maxKi {
			maxKi = rem
		}
		for ki := 1; ki <= maxKi; ki++ {
			p := new(big.Rat).Mul(factor(i, ki), rec(i+1, ki, rem-ki))
			if ratLess(p, best) {
				best = p
			}
		}
		memo[key] = best
		return best
	}
	return rec(0, j, j)
}

// ExactMaxDisclosure is MaxDisclosure computed in exact rational
// arithmetic. It shares no state with the float engine; each call memoizes
// per-histogram MINIMIZE1 tables internally.
func (e *Engine) ExactMaxDisclosure(bz *bucket.Bucketization, k int) (*big.Rat, error) {
	return e.ExactMaxDisclosureOpt(bz, k, Options{})
}

// ExactMaxDisclosureOpt is ExactMaxDisclosure with Options.
func (e *Engine) ExactMaxDisclosureOpt(bz *bucket.Bucketization, k int, opt Options) (*big.Rat, error) {
	if err := checkArgs(bz, k); err != nil {
		return nil, err
	}
	one := big.NewRat(1, 1)

	// Per-call MINIMIZE1 memo keyed by histogram signature. This is a cold
	// path (exact arithmetic dominates), so building the signature strings
	// here is harmless.
	sigs := make([]string, len(bz.Buckets))
	for i, b := range bz.Buckets {
		sigs[i] = b.Signature()
	}
	m1memo := make(map[string][]*big.Rat)
	m1 := func(i, j int) *big.Rat {
		tab, ok := m1memo[sigs[i]]
		if !ok {
			tab = make([]*big.Rat, k+2)
			m1memo[sigs[i]] = tab
		}
		if tab[j] == nil {
			tab[j] = m1ComputeRat(bz.Buckets[i].Histogram(), j)
		}
		return tab[j]
	}

	nb := len(bz.Buckets)
	type state struct{ val *big.Rat }
	memo := make([][][2]*state, nb)
	for i := range memo {
		memo[i] = make([][2]*state, k+1)
	}
	var rec func(i, h int, placed bool) *big.Rat // nil = +∞
	rec = func(i, h int, placed bool) *big.Rat {
		pi := 0
		if placed {
			pi = 1
		}
		if i == nb {
			if placed {
				return one
			}
			return nil
		}
		if s := memo[i][h][pi]; s != nil {
			return s.val
		}
		b := bz.Buckets[i]
		ratio := big.NewRat(int64(b.Size()), int64(b.TopCount()))
		var best *big.Rat
		for cnt := 0; cnt <= h; cnt++ {
			if tail := rec(i+1, h-cnt, placed); tail != nil {
				cand := new(big.Rat).Mul(m1(i, cnt), tail)
				if ratLess(cand, best) {
					best = cand
				}
			}
			if !placed && (!opt.ForbidSameBucketAntecedent || cnt == 0) {
				if tail := rec(i+1, h-cnt, true); tail != nil {
					cand := new(big.Rat).Mul(m1(i, cnt+1), ratio)
					cand.Mul(cand, tail)
					if ratLess(cand, best) {
						best = cand
					}
				}
			}
		}
		memo[i][h][pi] = &state{val: best}
		return best
	}
	rmin := rec(0, k, false)
	if rmin == nil {
		return nil, fmt.Errorf("core: no valid placement under the given options")
	}
	// 1 / (1 + rmin)
	den := new(big.Rat).Add(one, rmin)
	return new(big.Rat).Quo(one, den), nil
}

// IsCKSafeExact decides (c,k)-safety with an exact rational threshold,
// immune to float round-off at the boundary. The comparison is strict, as
// in Definition 13.
func (e *Engine) IsCKSafeExact(bz *bucket.Bucketization, c *big.Rat, k int) (bool, error) {
	if c == nil || c.Sign() < 0 || c.Cmp(big.NewRat(1, 1)) > 0 {
		return false, fmt.Errorf("core: threshold %v outside [0, 1]", c)
	}
	d, err := e.ExactMaxDisclosure(bz, k)
	if err != nil {
		return false, err
	}
	return d.Cmp(c) < 0, nil
}

// ExactNegationMaxDisclosure is NegationMaxDisclosure in exact arithmetic.
func ExactNegationMaxDisclosure(bz *bucket.Bucketization, k int) (*big.Rat, error) {
	if err := checkArgs(bz, k); err != nil {
		return nil, err
	}
	var best *big.Rat
	for _, b := range bz.Buckets {
		n := b.Size()
		top1, top := b.PrefixSum(k+1), b.PrefixSum(k)
		for si, count := range b.Histogram() {
			sum := top
			if si < k {
				sum = top1 - count
			}
			d := big.NewRat(int64(count), int64(n-sum))
			if best == nil || d.Cmp(best) > 0 {
				best = d
			}
		}
	}
	return best, nil
}

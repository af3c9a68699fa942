// Package privacy collects the privacy criteria discussed by the paper as
// uniform, monotone predicates over bucketizations: k-anonymity [29],
// distinct/entropy/recursive ℓ-diversity [24], and the paper's own
// (c,k)-safety (Definition 13).
//
// All criteria here are monotone with respect to the paper's ⪯ partial
// order (merging buckets never breaks them), which is what allows the
// lattice searches in internal/lattice to prune.
package privacy

import (
	"fmt"
	"math"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
)

// Criterion is a predicate over bucketizations.
type Criterion interface {
	// Name is a short human-readable identifier, e.g. "5-anonymity".
	Name() string
	// Satisfied reports whether the bucketization meets the criterion.
	Satisfied(bz *bucket.Bucketization) (bool, error)
}

// KAnonymity requires every bucket to contain at least K tuples [29].
type KAnonymity struct {
	K int
}

// Name implements Criterion.
func (c KAnonymity) Name() string { return fmt.Sprintf("%d-anonymity", c.K) }

// Satisfied implements Criterion.
func (c KAnonymity) Satisfied(bz *bucket.Bucketization) (bool, error) {
	if c.K < 1 {
		return false, fmt.Errorf("privacy: k-anonymity needs K >= 1, got %d", c.K)
	}
	if len(bz.Buckets) == 0 {
		return false, fmt.Errorf("privacy: empty bucketization")
	}
	return bz.MinSize() >= c.K, nil
}

// DistinctLDiversity requires every bucket to contain at least L distinct
// sensitive values.
type DistinctLDiversity struct {
	L int
}

// Name implements Criterion.
func (c DistinctLDiversity) Name() string { return fmt.Sprintf("distinct %d-diversity", c.L) }

// Satisfied implements Criterion.
func (c DistinctLDiversity) Satisfied(bz *bucket.Bucketization) (bool, error) {
	if c.L < 1 {
		return false, fmt.Errorf("privacy: l-diversity needs L >= 1, got %d", c.L)
	}
	if len(bz.Buckets) == 0 {
		return false, fmt.Errorf("privacy: empty bucketization")
	}
	return bz.MinDistinct() >= c.L, nil
}

// EntropyLDiversity requires every bucket's sensitive-value entropy to be at
// least ln L [24].
type EntropyLDiversity struct {
	L int
}

// Name implements Criterion.
func (c EntropyLDiversity) Name() string { return fmt.Sprintf("entropy %d-diversity", c.L) }

// Satisfied implements Criterion.
func (c EntropyLDiversity) Satisfied(bz *bucket.Bucketization) (bool, error) {
	if c.L < 1 {
		return false, fmt.Errorf("privacy: entropy l-diversity needs L >= 1, got %d", c.L)
	}
	if len(bz.Buckets) == 0 {
		return false, fmt.Errorf("privacy: empty bucketization")
	}
	return bz.MinEntropy() >= math.Log(float64(c.L))-1e-12, nil
}

// RecursiveCLDiversity is recursive (c,ℓ)-diversity [24]: in every bucket,
// n(s⁰) < C · (n(s^{ℓ-1}) + n(s^ℓ) + …).
type RecursiveCLDiversity struct {
	C float64
	L int
}

// Name implements Criterion.
func (c RecursiveCLDiversity) Name() string {
	return fmt.Sprintf("recursive (%g,%d)-diversity", c.C, c.L)
}

// Satisfied implements Criterion.
func (c RecursiveCLDiversity) Satisfied(bz *bucket.Bucketization) (bool, error) {
	if c.L < 2 {
		return false, fmt.Errorf("privacy: recursive (c,l)-diversity needs L >= 2, got %d", c.L)
	}
	if !(c.C > 0) || math.IsInf(c.C, 1) { // NaN fails too
		return false, fmt.Errorf("privacy: recursive (c,l)-diversity needs a finite C > 0, got %g", c.C)
	}
	if len(bz.Buckets) == 0 {
		return false, fmt.Errorf("privacy: empty bucketization")
	}
	for i, b := range bz.Buckets {
		if b.Size() == 0 {
			return false, fmt.Errorf("privacy: bucket %d is empty", i)
		}
		tail := b.Size() - b.PrefixSum(c.L-1)
		if float64(b.TopCount()) >= c.C*float64(tail) {
			return false, nil
		}
	}
	return true, nil
}

// CKSafety is the paper's Definition 13: maximum disclosure with respect to
// L^k_basic strictly below C.
type CKSafety struct {
	C float64
	K int
	// Engine optionally shares memoized DP state across checks (strongly
	// recommended for lattice searches); nil uses a private engine.
	Engine *core.Engine
}

// Name implements Criterion.
func (c CKSafety) Name() string { return fmt.Sprintf("(%g,%d)-safety", c.C, c.K) }

// Satisfied implements Criterion.
func (c CKSafety) Satisfied(bz *bucket.Bucketization) (bool, error) {
	e := c.Engine
	if e == nil {
		e = core.NewEngine()
	}
	return e.IsCKSafe(bz, c.C, c.K)
}

// NegationCKSafety is the ℓ-diversity-style analogue of CKSafety: maximum
// disclosure with respect to k negated atoms strictly below C. The paper's
// Figure 5 compares this weaker guarantee with full (c,k)-safety.
type NegationCKSafety struct {
	C float64
	K int
}

// Name implements Criterion.
func (c NegationCKSafety) Name() string { return fmt.Sprintf("negation (%g,%d)-safety", c.C, c.K) }

// Satisfied implements Criterion.
func (c NegationCKSafety) Satisfied(bz *bucket.Bucketization) (bool, error) {
	if !(c.C >= 0 && c.C <= 1) { // NaN fails too
		return false, fmt.Errorf("privacy: threshold c = %v outside [0, 1]", c.C)
	}
	d, err := core.NegationMaxDisclosure(bz, c.K)
	if err != nil {
		return false, err
	}
	return d < c.C, nil
}

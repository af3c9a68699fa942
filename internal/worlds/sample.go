package worlds

import (
	"fmt"
	"math"
	"math/rand"

	"ckprivacy/internal/logic"
	"ckprivacy/internal/parallel"
)

// Estimate is a Monte-Carlo probability estimate with a confidence radius.
type Estimate struct {
	// Prob is the point estimate of Pr(target | B ∧ φ).
	Prob float64
	// StdErr is the standard error of the estimate (binomial, conditional
	// on the accepted sample count).
	StdErr float64
	// Accepted counts sampled worlds satisfying φ (the conditioning
	// event); Samples counts all sampled worlds.
	Accepted, Samples int
}

// EstimateCondProb estimates Pr(target | B ∧ φ) by rejection sampling:
// worlds are drawn uniformly (an independent random permutation of each
// bucket's sensitive values, exactly the publishing process), worlds
// violating φ are rejected, and the target frequency among accepted worlds
// is returned.
//
// Computing this probability exactly is #P-complete (Theorem 8); the
// worst case over all φ of a given size is polynomial (internal/core), but
// evaluating one *specific* knowledge formula on a real-size bucketization
// is only feasible approximately. The estimator errs when no sampled world
// satisfies φ — either φ is inconsistent with B or its probability is too
// small for the sample budget.
//
// The budget is sharded across up to `workers` goroutines (workers <= 0
// means one per CPU core). Each shard runs an independent deterministic
// PRNG stream derived from seed — shard 0's is rand.NewSource(seed), so one
// worker draws exactly that stream — and the result is reproducible for a
// fixed (seed, workers) pair but differs across worker counts, as the
// streams interleave the sample space differently.
func (in Instance) EstimateCondProb(target logic.Atom, phi logic.Conjunction, samples, workers int, seed int64) (Estimate, error) {
	if samples <= 0 {
		return Estimate{}, fmt.Errorf("worlds: sample budget must be positive, got %d", samples)
	}
	workers = parallel.Workers(workers)
	if workers > samples {
		workers = samples
	}
	type count struct{ accepted, hits int }
	counts := make([]count, workers)
	err := parallel.ForEach(workers, workers, func(w int) error {
		chunk := samples / workers
		if w < samples%workers {
			chunk++
		}
		// Distinct, well-separated streams per shard: golden-ratio offsets
		// avoid the correlated low bits of consecutive seeds.
		rng := rand.New(rand.NewSource(seed + int64(w)*0x4f1bbcdcbfa53e0b))
		a, h := in.sample(target, phi, chunk, rng)
		counts[w] = count{accepted: a, hits: h}
		return nil
	})
	if err != nil {
		return Estimate{}, err
	}
	accepted, hits := 0, 0
	for _, c := range counts {
		accepted += c.accepted
		hits += c.hits
	}
	return finishEstimate(accepted, hits, samples)
}

// sample draws `samples` uniform worlds and counts those satisfying phi
// (accepted) and, among them, the target (hits).
func (in Instance) sample(target logic.Atom, phi logic.Conjunction, samples int, rng *rand.Rand) (accepted, hits int) {
	// Pre-build per-bucket value slices to shuffle in place.
	vals := make([][]string, len(in.Buckets))
	for i, b := range in.Buckets {
		vals[i] = append([]string(nil), b.Values...)
	}
	w := make(logic.Assignment, len(in.Persons()))
	for s := 0; s < samples; s++ {
		for i, b := range in.Buckets {
			v := vals[i]
			rng.Shuffle(len(v), func(x, y int) { v[x], v[y] = v[y], v[x] })
			for j, p := range b.Persons {
				w[p] = v[j]
			}
		}
		if !phi.Eval(w) {
			continue
		}
		accepted++
		if target.Eval(w) {
			hits++
		}
	}
	return accepted, hits
}

// ZeroAcceptanceError reports a rejection-sampling run in which no sampled
// world satisfied the conditioning formula φ: either φ is inconsistent with
// the bucketization or Pr(φ | B) is too small for the sample budget. The
// counts let callers (the HTTP API in particular) surface the distinction
// to their clients instead of discarding it.
type ZeroAcceptanceError struct {
	// Accepted is always 0; carried so callers can report it uniformly.
	Accepted int
	// Samples is the budget that produced no accepted world.
	Samples int
}

// Error implements error.
func (e *ZeroAcceptanceError) Error() string {
	return fmt.Sprintf("worlds: no sampled world satisfied the knowledge (inconsistent or too rare for %d samples)", e.Samples)
}

func finishEstimate(accepted, hits, samples int) (Estimate, error) {
	if accepted == 0 {
		return Estimate{Samples: samples}, &ZeroAcceptanceError{Samples: samples}
	}
	p := float64(hits) / float64(accepted)
	return Estimate{
		Prob:     p,
		StdErr:   math.Sqrt(p * (1 - p) / float64(accepted)),
		Accepted: accepted,
		Samples:  samples,
	}, nil
}

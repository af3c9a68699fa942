package bucket

import "math"

// Entropy returns the Shannon entropy (in nats) of the bucket's
// sensitive-value distribution. The paper's Figure 6 x-axis is the minimum
// of this quantity over all buckets. It is computed on first use and
// memoized on the bucket.
func (b *Bucket) Entropy() float64 {
	if e := b.memo.entropy.Load(); e != 0 {
		return math.Float64frombits(e &^ entropySet)
	}
	h := 0.0
	if n := float64(b.Size()); n > 0 {
		for _, c := range b.hist {
			p := float64(c) / n
			h -= p * math.Log(p)
		}
	}
	b.memo.entropy.Store(math.Float64bits(h) | entropySet)
	return h
}

// entropySet is the sign bit, which marks a bucket's entropy memo as
// computed: an entropy is never negative, so its own sign bit is clear.
const entropySet = 1 << 63

// MinEntropy returns the minimum bucket entropy over the bucketization.
// It is computed on first use, from the buckets' memoized entropies, or
// carried by AppendRows, and cached with the bucket count it covers.
// A cache whose count no longer matches len(Buckets) shows that Buckets
// changed, against the bucketization's contract; it is ignored, never
// replaced, and the minimum is recomputed.
func (bz *Bucketization) MinEntropy() float64 {
	cached := bz.minEntropy.Load()
	if cached != nil && cached.n == len(bz.Buckets) {
		return cached.min
	}
	min := math.Inf(1)
	for _, b := range bz.Buckets {
		if h := b.Entropy(); h < min {
			min = h
		}
	}
	if math.IsInf(min, 1) {
		min = 0
	}
	if cached == nil {
		bz.minEntropy.CompareAndSwap(nil, &entropyCache{n: len(bz.Buckets), min: min})
	}
	return min
}

// carryMinEntropy returns the minimum entropy of an append's result, old's
// buckets with the changed ones rebuilt or inserted, from old's cached
// minimum and the changed buckets' entropies. It reports false when old
// has no cached minimum, has no bucket, or rebuilt a bucket whose entropy
// equals the minimum: the untouched buckets may then no longer hold it.
// Otherwise an untouched bucket holds it, and the minimum over the
// result's buckets is that or a changed bucket's entropy.
func carryMinEntropy(old *Bucketization, changed []appended) (float64, bool) {
	cached := old.minEntropy.Load()
	if cached == nil || cached.n != len(old.Buckets) || cached.n == 0 {
		return 0, false
	}
	min := cached.min
	for _, ch := range changed {
		if ch.from >= 0 && old.Buckets[ch.from].Entropy() == cached.min {
			return 0, false
		}
		if h := ch.b.Entropy(); h < min {
			min = h
		}
	}
	return min, true
}

// entropyCache is a cached MinEntropy and the number of buckets it covers.
type entropyCache struct {
	n   int
	min float64
}

// MinSize returns the smallest bucket size (the k of k-anonymity).
func (bz *Bucketization) MinSize() int {
	min := 0
	for i, b := range bz.Buckets {
		if i == 0 || b.Size() < min {
			min = b.Size()
		}
	}
	return min
}

// MinDistinct returns the smallest number of distinct sensitive values in
// any bucket (the l of distinct l-diversity).
func (bz *Bucketization) MinDistinct() int {
	min := 0
	for i, b := range bz.Buckets {
		if i == 0 || b.Distinct() < min {
			min = b.Distinct()
		}
	}
	return min
}

// MaxTopFraction returns max_b n_b(s⁰_b)/n_b, the k=0 maximum disclosure
// (random-worlds baseline with no background knowledge). An empty bucket
// holds no person, so it adds no candidate.
func (bz *Bucketization) MaxTopFraction() float64 {
	max := 0.0
	for _, b := range bz.Buckets {
		if b.Size() == 0 {
			continue
		}
		f := float64(b.TopCount()) / float64(b.Size())
		if f > max {
			max = f
		}
	}
	return max
}

package bucket

// Disclosure series. A bucketization's buckets never change, so neither
// does its maximum disclosure at any k. internal/core computes the whole
// series d[0..K] from one MINIMIZE2 run and publishes it here, one series
// per disclosure variant (its Options sets), so a later call at any k <= K
// answers by reading d[k] instead of rerunning the DP.
//
// A series is published through an atomic pointer, as the class index
// is, and carries the bucket count it was computed over: a series whose
// count no longer matches len(Buckets) shows that a caller changed them
// (against the bucketization's contract) and is ignored, never replaced.
// A longer series replaces a shorter one; every entry of the shorter one
// equals the longer one's at the same k, so a reader holding either
// answers the same bits.

// SeriesVariants is the number of disclosure series a bucketization can
// publish: one per variant internal/core computes.
const SeriesVariants = 2

// seriesCache is a published series and the bucket count it covers.
type seriesCache struct {
	n int
	d []float64
}

// DisclosureSeries returns the series published for variant (d[k] is the
// maximum disclosure at k, for k up to len(d)-1), or nil when none covers
// the current buckets. The slice is shared: callers must not modify it.
func (bz *Bucketization) DisclosureSeries(variant int) []float64 {
	if s := bz.series[variant].Load(); s != nil && s.n == len(bz.Buckets) {
		return s.d
	}
	return nil
}

// PublishDisclosureSeries publishes d as variant's series unless a series
// at least as long is already published, or a stale one (computed over
// other buckets) blocks it. d is retained: the caller must not modify it
// afterwards.
func (bz *Bucketization) PublishDisclosureSeries(variant int, d []float64) {
	next := &seriesCache{n: len(bz.Buckets), d: d}
	for {
		cur := bz.series[variant].Load()
		if cur != nil && (cur.n != next.n || len(cur.d) >= len(d)) {
			return
		}
		if bz.series[variant].CompareAndSwap(cur, next) {
			return
		}
	}
}

// MINIMIZE1 rows. Under the random-worlds model a bucket's privacy state
// is its histogram, and internal/core's MINIMIZE1 row u[0..K] (u[j] the
// least Pr(∧_{i<j} ¬A_i | B) for j atoms inside the bucket) depends on
// nothing else, so the row is derived state of the bucket, as its hash
// and entropy are. core publishes each row it builds on the bucket, the
// first of its histogram class, and every bucketization that shares the
// bucket (an append's untouched buckets, a coarsening's rekeyed ones)
// reads it without building it again. The row is published through an
// atomic pointer, as a disclosure series is: a longer row replaces a
// shorter one, never the reverse, and its first entries are the shorter
// row's bit for bit, so a reader holding either reads the same values.

// M1Row returns the MINIMIZE1 row published on b when it holds at least
// width values, and nil otherwise. The slice may be longer than width and
// is shared: callers must not modify it.
func (b *Bucket) M1Row(width int) []float64 {
	if u := b.memo.m1.Load(); u != nil && len(*u) >= width {
		return *u
	}
	return nil
}

// PublishM1Row publishes u as b's MINIMIZE1 row unless a row at least as
// long is already published. u is retained: the caller must not modify
// it afterwards.
func (b *Bucket) PublishM1Row(u []float64) {
	next := &u
	for {
		cur := b.memo.m1.Load()
		if cur != nil && len(*cur) >= len(u) {
			return
		}
		if b.memo.m1.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Package bucket is snapshotmut testdata; it is named after the real
// package so the analyzer's "bucket.Bucket" and "bucket.Bucketization"
// pins apply. This file is both types' owning constructor file: every
// write here is allowed.
package bucket

// Bucket mirrors the real pinned type: immutable once finalized.
type Bucket struct {
	Key    string
	Tuples []int
	hist   []int
}

// NewBucket builds and may freely mutate the value under construction.
func NewBucket(key string, n int) *Bucket {
	b := &Bucket{Key: key}
	b.hist = make([]int, n)
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, i)
		b.hist[i] = i
	}
	return b
}

// Finalize is a constructor-file mutation: still allowed.
func (b *Bucket) Finalize() {
	b.Key = b.Key + "/final"
}

// Bucketization mirrors the real pinned partition type.
type Bucketization struct {
	Buckets []*Bucket
}

// FromBuckets builds a bucketization in a constructor file: allowed.
func FromBuckets(bs ...*Bucket) *Bucketization {
	bz := &Bucketization{}
	bz.Buckets = append(bz.Buckets, bs...)
	bz.Buckets[0] = bs[0]
	return bz
}

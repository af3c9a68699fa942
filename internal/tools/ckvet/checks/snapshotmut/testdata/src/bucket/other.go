// This file is NOT bucket.go: writes to Bucket here violate the pin.
package bucket

// mutateField writes a field of a pinned type outside its constructor
// file.
func mutateField(b *Bucket) {
	b.Key = "changed" // want `write to field Key of pinned-immutable bucket.Bucket`
}

// mutateElement writes through a pinned type's slice field.
func mutateElement(b *Bucket) {
	b.hist[0] = 9 // want `write to field hist of pinned-immutable bucket.Bucket`
}

// mutateAppend grows a pinned type's slice field.
func mutateAppend(b *Bucket) {
	b.Tuples = append(b.Tuples, 1) // want `write to field Tuples of pinned-immutable bucket.Bucket`
}

// incrementField uses ++ on a pinned field element.
func incrementField(b *Bucket) {
	b.hist[1]++ // want `write to field hist of pinned-immutable bucket.Bucket`
}

// replaceBuckets swaps a shared bucketization's buckets outside its
// constructor files, invalidating every cache derived from them.
func replaceBuckets(bz *Bucketization, bs []*Bucket) {
	bz.Buckets = bs // want `write to field Buckets of pinned-immutable bucket.Bucketization`
}

// replaceBucket writes one element of a pinned bucketization's buckets.
func replaceBucket(bz *Bucketization, b *Bucket) {
	bz.Buckets[0] = b // want `write to field Buckets of pinned-immutable bucket.Bucketization`
}

// rebindOnly rebinds the variable; the pinned object is untouched.
func rebindOnly(b *Bucket, other *Bucket) *Bucket {
	b = other
	return b
}

// readOnly reads are always fine.
func readOnly(b *Bucket) int {
	total := 0
	for _, t := range b.Tuples {
		total += t
	}
	return total
}

// suppressedMutation documents why this one write is safe.
func suppressedMutation(b *Bucket) {
	//ckvet:ignore snapshotmut b is this goroutine's private copy, cloned above
	b.Key = "private"
}

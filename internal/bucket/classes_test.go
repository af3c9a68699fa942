package bucket_test

import (
	"math/rand"
	"slices"
	"testing"

	"ckprivacy/internal/bucket"
)

// scanClasses runs a ClassScan over bz to the end and returns, per class,
// its first bucket and hash, and the class of every bucket.
func scanClasses(bz *bucket.Bucketization) (first []int, hash []uint64, of []int32) {
	var scan bucket.ClassScan
	scan.Start(bz)
	defer scan.Close()
	for scan.Next() {
		first = append(first, slices.Index(bz.Buckets, scan.Bucket()))
		hash = append(hash, scan.Bucket().HistogramHash())
	}
	return first, hash, slices.Clone(scan.ClassOf())
}

// TestClassScanClassifiesByHistogram: buckets share a class exactly when
// their histograms are equal, classes are numbered in order of first
// appearance, each carries its histogram's HistogramHash, and a scan over
// the published index reports the same classes as the scan that built it.
// A scan abandoned before its end publishes nothing.
func TestClassScanClassifiesByHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 200; iter++ {
		groups := make([][]string, 1+rng.Intn(30))
		for i := range groups {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				groups[i] = append(groups[i], string(rune('a'+rng.Intn(3))))
			}
		}
		bz := bucket.FromValues(groups...)

		var partial bucket.ClassScan
		partial.Start(bz)
		partial.Next()
		partial.Close()
		if bz.Indexed() {
			t.Fatal("an abandoned scan published an index")
		}

		first, hash, of := scanClasses(bz)
		if !bz.Indexed() {
			t.Fatal("a complete scan did not publish an index")
		}
		for i, b := range bz.Buckets {
			c := of[i]
			f := bz.Buckets[first[c]]
			if !slices.Equal(f.Histogram(), b.Histogram()) || first[c] > i {
				t.Fatalf("bucket %d %v in class %d, whose first bucket %d has %v", i, b.Histogram(), c, first[c], f.Histogram())
			}
			if hash[c] != bucket.HistogramHash(b.Histogram()) {
				t.Fatalf("class %d hash %x, HistogramHash %x", c, hash[c], bucket.HistogramHash(b.Histogram()))
			}
			for j := 0; j < i; j++ {
				if slices.Equal(bz.Buckets[j].Histogram(), b.Histogram()) && of[j] != c {
					t.Fatalf("buckets %d and %d share %v but have classes %d and %d", j, i, b.Histogram(), of[j], c)
				}
			}
		}
		for c := range first {
			if of[first[c]] != int32(c) || c > 0 && first[c] <= first[c-1] {
				t.Fatalf("classes %v with first buckets %v: not numbered in order of first appearance", of, first)
			}
		}

		first2, hash2, of2 := scanClasses(bz)
		if !slices.Equal(first, first2) || !slices.Equal(hash, hash2) || !slices.Equal(of, of2) {
			t.Fatalf("indexed scan: %v %v %v, building scan: %v %v %v", first2, hash2, of2, first, hash, of)
		}
	}
}

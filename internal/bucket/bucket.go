// Package bucket implements bucketization, the sanitization method the paper
// analyzes (equivalently, Anatomy-style publishing): tuples are partitioned
// into buckets and the sensitive values are randomly permuted within each
// bucket. Under the random-worlds assumption, all privacy-relevant state of
// a bucket is its sensitive-value histogram, which this package maintains in
// decreasing-frequency order (the s⁰_b, s¹_b, ... of the paper).
package bucket

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"

	"ckprivacy/internal/table"
)

// Bucket is one block of the partition.
type Bucket struct {
	// Key identifies the bucket, e.g. the generalized quasi-identifier
	// signature that formed it.
	Key string
	// Tuples lists the row indices (person identities) in the bucket.
	Tuples []int

	freq   []table.ValueCount // decreasing count, ties by value
	prefix []int              // prefix[j] = sum of top-j counts
	hist   []int              // counts only, aligned with freq
	// scounts is the sensitive histogram over the encoded table's
	// sensitive code space; nil for buckets built from value lists or
	// tuple groups. The incremental coarsening path merges these without
	// touching strings.
	scounts []int32
}

// newBucket finalizes a bucket's derived state from a sensitive-value
// count map. The map is not retained: the sorted freq slice answers every
// later query.
func newBucket(key string, tuples []int, counts map[string]int) *Bucket {
	b := &Bucket{Key: key, Tuples: tuples, freq: table.SortCounts(counts)}
	b.finalize()
	return b
}

// rekeyBucket returns a bucket identical to b under a new key, sharing
// its tuple, frequency and histogram storage. Coarsening a group of one
// fine bucket changes nothing but the key, so the derived state can be
// shared outright: buckets are immutable once built (the snapshotmut
// analyzer pins them to this file) and appends rebuild touched buckets
// rather than mutating them, so the sharing is never observable.
func rekeyBucket(b *Bucket, key string) *Bucket {
	return &Bucket{Key: key, Tuples: b.Tuples, freq: b.freq, prefix: b.prefix, hist: b.hist, scounts: b.scounts}
}

// finalize derives the prefix sums and the cached histogram from freq.
func (b *Bucket) finalize() {
	b.prefix = make([]int, len(b.freq)+1)
	b.hist = make([]int, len(b.freq))
	for i, vc := range b.freq {
		b.prefix[i+1] = b.prefix[i] + vc.Count
		b.hist[i] = vc.Count
	}
}

// Size returns n_b, the number of tuples in the bucket.
func (b *Bucket) Size() int { return len(b.Tuples) }

// Count returns n_b(s), the multiplicity of sensitive value s. The number
// of distinct sensitive values per bucket is small, so a linear scan of
// the freq slice beats retaining a dedicated map per bucket.
func (b *Bucket) Count(s string) int {
	for _, vc := range b.freq {
		if vc.Value == s {
			return vc.Count
		}
	}
	return 0
}

// Freq returns the value counts in decreasing order (s⁰_b first). The
// returned slice must not be modified.
func (b *Bucket) Freq() []table.ValueCount { return b.freq }

// Distinct returns the number of distinct sensitive values.
func (b *Bucket) Distinct() int { return len(b.freq) }

// TopValue returns s⁰_b, the most frequent sensitive value.
func (b *Bucket) TopValue() string { return b.freq[0].Value }

// TopCount returns n_b(s⁰_b).
func (b *Bucket) TopCount() int { return b.freq[0].Count }

// PrefixSum returns the total count of the j most frequent values
// (j may exceed the number of distinct values, in which case the full size
// is returned).
func (b *Bucket) PrefixSum(j int) int {
	if j >= len(b.prefix) {
		return b.prefix[len(b.prefix)-1]
	}
	return b.prefix[j]
}

// Histogram returns the counts in decreasing order. The DP in
// internal/core depends only on this. The slice is computed once at
// construction and shared across calls: it must be treated as read-only.
func (b *Bucket) Histogram() []int { return b.hist }

// Signature returns a canonical string form of the histogram, used to share
// memoized DP tables between buckets with identical histograms.
func (b *Bucket) Signature() string {
	var sb strings.Builder
	for i, vc := range b.freq {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(vc.Count))
	}
	return sb.String()
}

// Bucketization is a partition of a table's tuples into buckets. It is
// immutable once built: its fields are written only by the constructors
// (the snapshotmut analyzer pins them to their files), which is what lets
// it cache derived state for every later reader.
type Bucketization struct {
	// Buckets holds the blocks in deterministic (key) order. It must not
	// be modified (no bucket replaced, appended or removed) once the
	// bucketization has been passed to any disclosure or stats call: its
	// histogram-class index and MinEntropy are cached from the buckets as
	// they were. Build a new bucketization instead.
	Buckets []*Bucket
	// Source optionally references the table the bucketization was built
	// from; it is required by Publish and by the logic/worlds bridges.
	Source *table.Table

	// classes is the histogram-class index, published at most once by a
	// complete ClassScan (classes.go); nil until then.
	classes atomic.Pointer[classIndex]
	// minEntropy caches MinEntropy once computed.
	minEntropy atomic.Pointer[entropyCache]
}

// FromValues builds a bucketization directly from per-bucket sensitive-value
// multisets, with synthetic person identities 0..n-1 assigned in order. It
// is the main constructor for tests and small worked examples.
func FromValues(groups ...[]string) *Bucketization {
	bz := &Bucketization{}
	next := 0
	for gi, g := range groups {
		counts := make(map[string]int, len(g))
		tuples := make([]int, len(g))
		for i, s := range g {
			counts[s]++
			tuples[i] = next
			next++
		}
		bz.Buckets = append(bz.Buckets, newBucket(fmt.Sprintf("b%d", gi), tuples, counts))
	}
	return bz
}

// FromTupleGroups rebuilds a bucketization from its materialized form:
// per-bucket keys and tuple (row) ids over src. It is the durable store's
// recovery constructor — a persisted release stores exactly its partition,
// and this turns it back into a live Bucketization (sensitive histograms
// recounted from src) without re-running the original generalization scan.
// Buckets are taken in the given order; keys need not be sorted (they were
// sorted when first built, and recovery preserves that order verbatim).
func FromTupleGroups(src *table.Table, keys []string, groups [][]int) (*Bucketization, error) {
	if len(keys) != len(groups) {
		return nil, fmt.Errorf("bucket: %d keys but %d groups", len(keys), len(groups))
	}
	bz := &Bucketization{Source: src}
	for i, key := range keys {
		tuples := groups[i]
		counts := make(map[string]int, 4)
		for _, id := range tuples {
			if id < 0 || id >= src.Len() {
				return nil, fmt.Errorf("bucket: group %d tuple id %d outside table of %d rows", i, id, src.Len())
			}
			counts[src.SensitiveValue(id)]++
		}
		bz.Buckets = append(bz.Buckets, newBucket(key, tuples, counts))
	}
	return bz, nil
}

// Levels assigns a generalization level to each quasi-identifier by name.
type Levels map[string]int

// Merge returns a new bucketization with buckets i and j merged (a single
// step up the paper's ⪯ partial order). The source table, if any, carries
// over.
func (bz *Bucketization) Merge(i, j int) (*Bucketization, error) {
	if i == j || i < 0 || j < 0 || i >= len(bz.Buckets) || j >= len(bz.Buckets) {
		return nil, fmt.Errorf("bucket: cannot merge buckets %d and %d of %d", i, j, len(bz.Buckets))
	}
	if j < i {
		i, j = j, i
	}
	out := &Bucketization{Source: bz.Source}
	for k, b := range bz.Buckets {
		if k == j {
			continue
		}
		if k != i {
			out.Buckets = append(out.Buckets, b)
			continue
		}
		a, c := bz.Buckets[i], bz.Buckets[j]
		counts := make(map[string]int, len(a.freq)+len(c.freq))
		for _, vc := range a.freq {
			counts[vc.Value] += vc.Count
		}
		for _, vc := range c.freq {
			counts[vc.Value] += vc.Count
		}
		tuples := make([]int, 0, len(a.Tuples)+len(c.Tuples))
		tuples = append(tuples, a.Tuples...)
		tuples = append(tuples, c.Tuples...)
		merged := newBucket(a.Key+"+"+c.Key, tuples, counts)
		if a.scounts != nil && c.scounts != nil && len(a.scounts) == len(c.scounts) {
			merged.scounts = make([]int32, len(a.scounts))
			for v := range a.scounts {
				merged.scounts[v] = a.scounts[v] + c.scounts[v]
			}
		}
		out.Buckets = append(out.Buckets, merged)
	}
	return out, nil
}

// Size returns the total number of tuples across all buckets.
func (bz *Bucketization) Size() int {
	n := 0
	for _, b := range bz.Buckets {
		n += b.Size()
	}
	return n
}

// BucketOf returns the index of the bucket containing tuple (person) id, or
// -1 if absent.
func (bz *Bucketization) BucketOf(id int) int {
	for i, b := range bz.Buckets {
		for _, t := range b.Tuples {
			if t == id {
				return i
			}
		}
	}
	return -1
}

// Publish materializes the sanitized release: for each bucket, the tuples'
// non-sensitive attributes together with an independently random permutation
// of the bucket's sensitive values (the paper's Figure 3 form). The first
// output column is the bucket key. Publish requires a Source table.
func (bz *Bucketization) Publish(rng *rand.Rand) ([][]string, error) {
	if bz.Source == nil {
		return nil, fmt.Errorf("bucket: Publish needs a source table")
	}
	t := bz.Source
	qi := t.Schema.QuasiIdentifiers()
	var out [][]string
	for _, b := range bz.Buckets {
		vals := make([]string, 0, b.Size())
		for _, id := range b.Tuples {
			vals = append(vals, t.SensitiveValue(id))
		}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		for i, id := range b.Tuples {
			row := make([]string, 0, len(qi)+2)
			row = append(row, b.Key)
			for _, col := range qi {
				row = append(row, t.Value(id, col))
			}
			row = append(row, vals[i])
			out = append(out, row)
		}
	}
	return out, nil
}

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
	// Tuples lists the row indices (person identities) in the bucket. It
	// is nil on a bucketization built for histogram readers (a search's
	// nodes, Figure 6's sweep): under the random-worlds model a bucket's
	// privacy state is its histogram, and Size, Rep and the histogram are
	// set on every bucket.
	Tuples []int

	// hist is the sensitive histogram: counts in decreasing order, ties
	// by increasing value (s⁰_b first). codes[j] is the code of hist[j]'s
	// value in dict, the sensitive dictionary the bucket was built over
	// (or an older view of it: codes are never reassigned). Both slices
	// are usually sections of slabs the bucket shares with the other
	// buckets its constructor call built (hist.go).
	hist  []int
	codes []uint32
	dict  *table.Dict
	// memo holds the state derived from the histogram. A renamed copy of
	// the bucket (rekeyBucket) shares it, so what either computes the
	// other reads.
	memo *memo
	// size is n_b, and rep the bucket's smallest row (-1 when empty).
	// Both are set whether or not the bucket holds its row ids.
	size, rep int32
}

// memo is the derived state of one histogram: HistogramHash, Entropy and
// the MINIMIZE1 row internal/core publishes (series.go), each computed
// on first use. A constructor call allocates its buckets' memos as one
// slab beside their histogram slabs, and every bucket that shares the
// histogram shares its memo: an append's untouched buckets by pointer, a
// coarsening's renamed ones through rekeyBucket. Zero means not yet
// computed: a hash of zero is recomputed on every call, and entropy holds
// the entropy's bits with the sign bit set, which an entropy (never
// negative) leaves free.
type memo struct {
	hash    atomic.Uint64
	entropy atomic.Uint64
	m1      atomic.Pointer[[]float64]
}

// newBucket assembles a bucket of size rows, the smallest of them rep,
// from its sorted histogram and its memo slot. tuples is nil on the
// histogram form.
func newBucket(key string, tuples []int, size, rep int, hist []int, codes []uint32, dict *table.Dict, m *memo) *Bucket {
	return &Bucket{Key: key, Tuples: tuples, hist: hist, codes: codes, dict: dict, memo: m, size: int32(size), rep: int32(rep)}
}

// ownedBucket is a bucket allocated together with its memo, for the
// constructors that build buckets one at a time (Merge, and an append's
// rebuilt buckets): one allocation a bucket, and no slab that a longer
// lived sibling would pin.
type ownedBucket struct {
	b Bucket
	m memo
}

// newOwnedBucket is newBucket with a memo of the bucket's own.
func newOwnedBucket(key string, tuples []int, size, rep int, hist []int, codes []uint32, dict *table.Dict) *Bucket {
	ob := &ownedBucket{}
	ob.b = Bucket{Key: key, Tuples: tuples, hist: hist, codes: codes, dict: dict, memo: &ob.m, size: int32(size), rep: int32(rep)}
	return &ob.b
}

// rekeyBucket returns a bucket identical to b under key, with tuples as
// its row ids (nil on the histogram form), sharing b's histogram storage
// and its memo. Coarsening a group of one fine bucket changes nothing but
// the key, and a fill-in adds only the row ids, so the derived state is
// shared outright: buckets are immutable once built (the snapshotmut
// analyzer pins them to this file) and appends rebuild touched buckets
// rather than mutating them, so the sharing is never observable, and a
// MINIMIZE1 row either bucket publishes serves both.
func rekeyBucket(b *Bucket, key string, tuples []int) *Bucket {
	return &Bucket{Key: key, Tuples: tuples, hist: b.hist, codes: b.codes, dict: b.dict, memo: b.memo, size: b.size, rep: b.rep}
}

// hasTuples reports whether b holds its row ids. An empty bucket always
// does.
func (b *Bucket) hasTuples() bool { return len(b.Tuples) == b.Size() }

// Size returns n_b, the number of tuples in the bucket.
func (b *Bucket) Size() int { return int(b.size) }

// Rep returns the bucket's representative row: its smallest row index
// (person identity), or -1 for an empty bucket. It is set whether or not
// the bucket holds its row ids (Tuples), and every row of the bucket
// generalizes to the bucket's key, so a coarser key or one person to
// name can be read from it alone.
func (b *Bucket) Rep() int { return int(b.rep) }

// Value returns s^j_b, the j-th most frequent sensitive value (s⁰_b
// first, ties by increasing value).
func (b *Bucket) Value(j int) string { return b.dict.Value(b.codes[j]) }

// Count returns n_b(s), the multiplicity of sensitive value s. The number
// of distinct sensitive values per bucket is small, so a linear scan of
// the histogram beats retaining a dedicated map per bucket.
func (b *Bucket) Count(s string) int {
	for j, c := range b.codes {
		if b.dict.Value(c) == s {
			return b.hist[j]
		}
	}
	return 0
}

// Freq returns the value counts in decreasing order (s⁰_b first), decoded
// from the histogram into a fresh slice on every call: it is the API-edge
// form, and hot paths read Histogram and Value instead.
func (b *Bucket) Freq() []table.ValueCount {
	out := make([]table.ValueCount, len(b.hist))
	for j, n := range b.hist {
		out[j] = table.ValueCount{Value: b.dict.Value(b.codes[j]), Count: n}
	}
	return out
}

// Distinct returns the number of distinct sensitive values.
func (b *Bucket) Distinct() int { return len(b.hist) }

// TopValue returns s⁰_b, the most frequent sensitive value.
func (b *Bucket) TopValue() string { return b.Value(0) }

// TopCount returns n_b(s⁰_b).
func (b *Bucket) TopCount() int { return b.hist[0] }

// PrefixSum returns the total count of the j most frequent values
// (j may exceed the number of distinct values, in which case the full size
// is returned).
func (b *Bucket) PrefixSum(j int) int {
	sum := 0
	for _, n := range b.hist[:min(j, len(b.hist))] {
		sum += n
	}
	return sum
}

// Histogram returns the counts in decreasing order. The DP in
// internal/core depends only on this. The slice is the bucket's own
// state, shared across calls: it must be treated as read-only.
func (b *Bucket) Histogram() []int { return b.hist }

// HistogramHash returns HistogramHash(b.Histogram()), computed on first
// use and memoized on the bucket.
func (b *Bucket) HistogramHash() uint64 {
	if h := b.memo.hash.Load(); h != 0 {
		return h
	}
	h := bucketHash(b.hist)
	b.memo.hash.Store(h)
	return h
}

// bucketHash is the hash buckets memoize. It is always HistogramHash
// outside tests, which swap in a weak hash to make the collisions that
// class scans and carryClasses must survive common.
var bucketHash = HistogramHash

// Signature returns a canonical string form of the histogram: equal
// histograms, and only they, have equal signatures.
func (b *Bucket) Signature() string {
	var sb strings.Builder
	for i, n := range b.hist {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(n))
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
	// histogram-class index, disclosure series, size and MinEntropy are
	// cached from the buckets as they were. Build a new bucketization
	// instead. The buckets of one bucketization share one sensitive code
	// space.
	Buckets []*Bucket
	// Source optionally references the table the bucketization was built
	// from; it is required by Publish and by the logic/worlds bridges.
	Source *table.Table

	// classes is the histogram-class index, carried forward by AppendRows
	// or published at most once by a complete ClassScan (classes.go); nil
	// until then.
	classes atomic.Pointer[classIndex]
	// series holds the disclosure series published per variant
	// (series.go); nil until one is.
	series [SeriesVariants]atomic.Pointer[seriesCache]
	// size and minEntropy cache Size and MinEntropy once computed, or
	// once AppendRows carries them.
	size       atomic.Pointer[sizeCache]
	minEntropy atomic.Pointer[entropyCache]
}

// FromValues builds a bucketization directly from per-bucket sensitive-value
// multisets, with synthetic person identities 0..n-1 assigned in order. It
// is the main constructor for tests and small worked examples.
func FromValues(groups ...[]string) *Bucketization {
	bz := &Bucketization{}
	keys := make([]string, len(groups))
	tuples := make([][]int, len(groups))
	next := 0
	for gi, g := range groups {
		keys[gi] = fmt.Sprintf("b%d", gi)
		tuples[gi] = make([]int, len(g))
		for i := range g {
			tuples[gi][i] = next
			next++
		}
	}
	bz.Buckets = fromValueLists(keys, tuples, groups)
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
	values := make([][]string, len(groups))
	for i, tuples := range groups {
		values[i] = make([]string, len(tuples))
		for j, id := range tuples {
			if id < 0 || id >= src.Len() {
				return nil, fmt.Errorf("bucket: group %d tuple id %d outside table of %d rows", i, id, src.Len())
			}
			values[i][j] = src.SensitiveValue(id)
		}
	}
	return &Bucketization{Source: src, Buckets: fromValueLists(keys, groups, values)}, nil
}

// fromValueLists builds one bucket per value list over a local dictionary
// of the lists' values, coded in order of first sight.
func fromValueLists(keys []string, tuples [][]int, values [][]string) []*Bucket {
	dict := table.NewDict()
	coded := make([][]uint32, len(values))
	for i, vs := range values {
		coded[i] = make([]uint32, len(vs))
		for j, v := range vs {
			coded[i][j] = dict.Intern(v)
		}
	}
	hb := histPool.Get().(*histBuilder)
	defer histPool.Put(hb)
	hb.reset(dict)
	for _, cs := range coded {
		for _, c := range cs {
			hb.add(c, 1)
		}
		hb.close()
	}
	slabs := hb.slabs()
	out := make([]*Bucket, len(keys))
	for i, key := range keys {
		rep := -1
		for _, id := range tuples[i] {
			if rep < 0 || id < rep {
				rep = id
			}
		}
		out[i] = slabs.bucket(i, key, tuples[i], len(tuples[i]), rep)
	}
	return out
}

// Levels assigns a generalization level to each quasi-identifier by name.
type Levels map[string]int

// Merge returns a new bucketization with buckets i and j merged (a single
// step up the paper's ⪯ partial order). The source table, if any, carries
// over. It needs the two buckets' row ids.
func (bz *Bucketization) Merge(i, j int) (*Bucketization, error) {
	if i == j || i < 0 || j < 0 || i >= len(bz.Buckets) || j >= len(bz.Buckets) {
		return nil, fmt.Errorf("bucket: cannot merge buckets %d and %d of %d", i, j, len(bz.Buckets))
	}
	if j < i {
		i, j = j, i
	}
	a, c := bz.Buckets[i], bz.Buckets[j]
	if !a.hasTuples() || !c.hasTuples() {
		return nil, errNoTuples("Merge")
	}
	// The buckets share one code space; the longer view of its dictionary
	// decodes both (after an append, untouched buckets keep the older one).
	dict := a.dict
	if c.dict.Len() > dict.Len() {
		dict = c.dict
	}
	hb := histPool.Get().(*histBuilder)
	defer histPool.Put(hb)
	hb.reset(dict)
	hb.addBucket(a)
	hb.addBucket(c)
	hb.close()
	tuples := make([]int, 0, len(a.Tuples)+len(c.Tuples))
	tuples = append(tuples, a.Tuples...)
	tuples = append(tuples, c.Tuples...)
	rep := a.Rep()
	if r := c.Rep(); rep < 0 || (r >= 0 && r < rep) {
		rep = r
	}

	out := &Bucketization{Source: bz.Source}
	for k, b := range bz.Buckets {
		switch k {
		case j:
		case i:
			out.Buckets = append(out.Buckets, hb.bucket(0, a.Key+"+"+c.Key, tuples, len(tuples), rep))
		default:
			out.Buckets = append(out.Buckets, b)
		}
	}
	return out, nil
}

// Size returns the total number of tuples across all buckets. It is
// computed on first use and cached with the bucket count it covers, as
// MinEntropy is.
func (bz *Bucketization) Size() int {
	cached := bz.size.Load()
	if cached != nil && cached.n == len(bz.Buckets) {
		return cached.size
	}
	n := 0
	for _, b := range bz.Buckets {
		n += b.Size()
	}
	if cached == nil {
		bz.size.CompareAndSwap(nil, &sizeCache{n: len(bz.Buckets), size: n})
	}
	return n
}

// sizeCache is a cached Size and the number of buckets it covers.
type sizeCache struct {
	n, size int
}

// BucketOf returns the index of the bucket containing tuple (person) id, or
// -1 if absent. It needs the buckets' row ids, and fails on a
// bucketization built without them.
func (bz *Bucketization) BucketOf(id int) (int, error) {
	if !bz.hasTuples() {
		return -1, errNoTuples("BucketOf")
	}
	for i, b := range bz.Buckets {
		for _, t := range b.Tuples {
			if t == id {
				return i, nil
			}
		}
	}
	return -1, nil
}

// hasTuples reports whether every bucket holds its row ids: false on a
// bucketization built for histogram readers.
func (bz *Bucketization) hasTuples() bool {
	for _, b := range bz.Buckets {
		if !b.hasTuples() {
			return false
		}
	}
	return true
}

// errNoTuples is the error of an operation that needs row ids, called on
// a bucketization built without them.
func errNoTuples(op string) error {
	return fmt.Errorf("bucket: %s needs row ids, and the bucketization was built for histogram readers without them", op)
}

// Publish materializes the sanitized release: for each bucket, the tuples'
// non-sensitive attributes together with an independently random permutation
// of the bucket's sensitive values (the paper's Figure 3 form). The first
// output column is the bucket key. Publish requires a Source table and the
// buckets' row ids.
func (bz *Bucketization) Publish(rng *rand.Rand) ([][]string, error) {
	if bz.Source == nil {
		return nil, fmt.Errorf("bucket: Publish needs a source table")
	}
	if !bz.hasTuples() {
		return nil, errNoTuples("Publish")
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

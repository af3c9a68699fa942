package core

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ckprivacy/internal/bucket"
)

// ---------------------------------------------------------------------------
// Histogram hashing
// ---------------------------------------------------------------------------

// TestFingerprintDistinguishesKeys checks the histograms most likely to
// alias under a sloppy hash: concatenation boundaries, length changes and
// reorderings.
func TestFingerprintDistinguishesKeys(t *testing.T) {
	cases := [][]int{
		{1, 2},
		{12},
		{1, 23},
		{12, 3},
		{1},
		{1, 2, 3},
		{3, 2, 1},
		{256},
		{1, 256},
		{256, 1},
		{1, 1},
		nil,
	}
	seen := make(map[uint64][]int)
	for _, hist := range cases {
		fp := bucket.HistogramHash(hist)
		if prev, ok := seen[fp]; ok {
			t.Errorf("fingerprint collision between %v and %v", prev, hist)
		}
		seen[fp] = hist
	}
}

// ---------------------------------------------------------------------------
// MINIMIZE1 rows on buckets
// ---------------------------------------------------------------------------

// histBucket returns a fresh bucket whose histogram is hist, counts in
// decreasing order: value v<i> occurs hist[i] times.
func histBucket(hist []int) *bucket.Bucket {
	var values []string
	for v, n := range hist {
		for range n {
			values = append(values, "v"+strconv.Itoa(v))
		}
	}
	return bucket.FromValues(values).Buckets[0]
}

// rowOf is b's MINIMIZE1 row at width, read through a row pass over a
// bucketization holding b alone: the row published on b when it is wide
// enough, and otherwise one the pass builds and publishes.
func rowOf(e *Engine, b *bucket.Bucket, width int) []float64 {
	sc := m2Pool.Get().(*m2Scratch)
	defer m2Pool.Put(sc)
	e.rowPass(sc, &bucket.Bucketization{Buckets: []*bucket.Bucket{b}}, width, noStop)
	return slices.Clone(sc.rows[:width])
}

// stringMemo replicates the first engine memo: a string-signature-keyed
// map of per-j MINIMIZE1 values. It is the reference the rows published
// on buckets must agree with bit for bit.
type stringMemo struct {
	m map[string]map[int]float64
}

func (sm *stringMemo) m1(hist []int, j int) float64 {
	var sb strings.Builder
	for i, c := range hist {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	sig := sb.String()
	if e, ok := sm.m[sig][j]; ok {
		return e
	}
	e := m1Compute(hist, j).val
	if sm.m[sig] == nil {
		sm.m[sig] = make(map[int]float64)
	}
	sm.m[sig][j] = e
	return e
}

// TestMemoMatchesStringKeyedReference drives a pool of buckets, at atom
// counts in random order so their rows are read, read by prefix and
// grown, through the row pass and through the old string-keyed
// reference, asserting bit-identical values.
func TestMemoMatchesStringKeyedReference(t *testing.T) {
	e := NewEngine()
	ref := &stringMemo{m: make(map[string]map[int]float64)}
	rng := rand.New(rand.NewSource(7))
	pool := make([]*bucket.Bucket, 64)
	for i := range pool {
		pool[i] = histBucket(randomHistogram(rng, 1+rng.Intn(6), 1+rng.Intn(9)))
	}
	for iter := 0; iter < 2000; iter++ {
		b := pool[rng.Intn(len(pool))]
		j := rng.Intn(8)
		got := rowOf(e, b, j+1)[j]
		want := ref.m1(b.Histogram(), j)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row u(%v, %d) = %v, reference %v", b.Histogram(), j, got, want)
		}
	}
	if st := e.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("stats %+v: the pool's rows were never both built and read", st)
	}
}

// randomHistogram returns vals counts in decreasing order with each count
// in [1, maxCount] (the invariant bucket.Histogram guarantees).
func randomHistogram(rng *rand.Rand, vals, maxCount int) []int {
	h := make([]int, vals)
	for i := range h {
		h[i] = 1 + rng.Intn(maxCount)
	}
	for i := 1; i < len(h); i++ {
		if h[i] > h[i-1] {
			h[i] = h[i-1]
		}
	}
	return h
}

// f64bits returns the bit patterns of xs, so slices.Equal compares floats
// bit for bit.
func f64bits(xs []float64) []uint64 {
	bits := make([]uint64, len(xs))
	for i, x := range xs {
		bits[i] = math.Float64bits(x)
	}
	return bits
}

// checkPublishedRow asserts that b holds a published row at least width
// wide and equal, bit for bit, to m1Row's at its own length.
func checkPublishedRow(t *testing.T, b *bucket.Bucket, width int) {
	t.Helper()
	u := b.M1Row(width)
	if u == nil {
		t.Fatalf("bucket %v holds no row %d wide", b.Histogram(), width)
	}
	if want := m1Row(b.Histogram(), len(u)-1); !slices.Equal(f64bits(u), f64bits(want)) {
		t.Fatalf("bucket %v holds row %v, m1Row %v", b.Histogram(), u, want)
	}
}

// TestRacingMissesStoreOneRow races 32 workers on one cold bucket, half
// asking a narrow row and half a wide one, so misses build rows and race
// to publish them: every caller must get m1Row's values bit for bit, the
// bucket must end up holding the wide row, and every read must count as
// a hit or a miss.
func TestRacingMissesStoreOneRow(t *testing.T) {
	e := NewEngine()
	b := histBucket([]int{4, 3, 2, 1})
	const workers, narrow, wide = 32, 3, 12
	widths := [2]int{narrow, wide}
	var wg sync.WaitGroup
	start := make(chan struct{})
	rows := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			rows[w] = rowOf(e, b, widths[w%2])
		}(w)
	}
	close(start)
	wg.Wait()
	for w, row := range rows {
		width := widths[w%2]
		if want := m1Row(b.Histogram(), width-1); !slices.Equal(f64bits(row), f64bits(want)) {
			t.Fatalf("worker %d (width %d) got %v, want %v", w, width, row, want)
		}
	}
	if st := e.Stats(); st.Hits+st.Misses != workers || st.Misses == 0 {
		t.Errorf("stats %+v: want %d reads, at least one a miss", st, workers)
	}
	// A narrow row published last must not shorten the wide one, whatever
	// order the race above took.
	b.PublishM1Row(m1Row(b.Histogram(), narrow-1))
	checkPublishedRow(t, b, wide)
	if got := len(b.M1Row(0)); got != wide {
		t.Errorf("bucket holds a %d-wide row, want the width-%d row", got, wide)
	}
}

// TestRowGrowth: asking k = 1 and then k = 11 of one bucket builds its
// row twice (one build, one growth) and leaves the longer row published
// on it, m1Row's bit for bit. A shorter request on a fresh bucketization
// over the same bucket then reads a prefix of the grown row and builds
// none. It asks a fresh bucketization because bz's published series
// would answer k = 3 without reading a row.
func TestRowGrowth(t *testing.T) {
	bz := bucket.FromValues([]string{"a", "a", "a", "b", "b", "c", "d"})
	e := NewEngine()
	for _, k := range []int{1, 11} {
		if _, err := e.MaxDisclosure(bz, k); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("after k = 1 then 11: %+v; want 0 hits and 2 misses (one build, one growth)", st)
	}
	checkPublishedRow(t, bz.Buckets[0], 11+2)
	if got := len(bz.Buckets[0].M1Row(0)); got != 11+2 {
		t.Errorf("bucket holds a %d-wide row after k = 11, want %d", got, 11+2)
	}
	fresh := &bucket.Bucketization{Buckets: bz.Buckets}
	got, err := e.MaxDisclosure(fresh, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("k = 3 after k = 11: %+v, want one hit and no new miss", st)
	}
	want, err := NewEngine().MaxDisclosure(bucket.FromValues([]string{"a", "a", "a", "b", "b", "c", "d"}), 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("k = 3 from the grown row: %v, a fresh bucket's %v", got, want)
	}
}

// TestRowGrowthConcurrent races workers asking random widths of a few
// buckets, so rows are built, published by racing misses and grown
// concurrently: every value must equal m1Compute's, and each bucket must
// end up holding m1Row's row at least as wide as any worker asked.
func TestRowGrowthConcurrent(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(23))
	pool := make([]*bucket.Bucket, 6)
	for i := range pool {
		pool[i] = histBucket(randomHistogram(rng, 1+rng.Intn(8), 1+rng.Intn(30)))
	}
	var widest [6]int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 300; iter++ {
				i, j := rng.Intn(len(pool)), rng.Intn(14)
				b := pool[i]
				if got, want := rowOf(e, b, j+1)[j], m1Compute(b.Histogram(), j).val; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("u(%v, %d) = %v, want %v", b.Histogram(), j, got, want)
					return
				}
				mu.Lock()
				widest[i] = max(widest[i], j+1)
				mu.Unlock()
			}
		}(int64(w))
	}
	wg.Wait()
	for i, b := range pool {
		checkPublishedRow(t, b, widest[i])
	}
	if st := e.Stats(); st.Hits+st.Misses != 8*300 {
		t.Errorf("stats %+v: want %d reads", st, 8*300)
	}
}

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

// BenchmarkMaxDisclosureSteadyState measures the full disclosure check
// over buckets that hold their rows and a bucketization with nothing
// published: what a read of a node costs after an append gave it a new
// bucketization over mostly shared buckets (a class scan, one row read
// per class and MINIMIZE2). Each iteration gets a new bucketization of
// the same buckets, since a reused one would answer from the series the
// first iteration published.
func BenchmarkMaxDisclosureSteadyState(b *testing.B) {
	e := NewEngine()
	bz := fig3()
	if _, err := e.MaxDisclosure(bz, 4); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := e.MaxDisclosure(&bucket.Bucketization{Buckets: bz.Buckets, Source: bz.Source}, 4)
		if err != nil {
			b.Fatal(err)
		}
		sinkF = d
	}
}

var sinkF float64

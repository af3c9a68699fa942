package core

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ckprivacy/internal/bucket"
)

// ---------------------------------------------------------------------------
// Fingerprint keying
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
		fp := histPrefix(hist)
		if prev, ok := seen[fp]; ok {
			t.Errorf("fingerprint collision between %v and %v", prev, hist)
		}
		seen[fp] = hist
	}
}

// memoM1 is the MINIMIZE1 value of hist with j atoms, read through the
// engine's row memo.
func memoM1(e *Engine, hist []int, j int) float64 {
	return e.row(histPrefix(hist), hist, j+1)[j]
}

// stringMemo replicates the pre-sharding engine memo: a string-signature-
// keyed map of per-j MINIMIZE1 values. It is the reference the bounded,
// fingerprint-keyed row memo must agree with bit for bit.
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

// TestMemoMatchesStringKeyedReference drives the corpus of random
// histograms, at atom counts in random order so rows are hit, read by
// prefix and grown, through the fingerprint-keyed row memo and the old
// string-keyed reference, asserting bit-identical values.
func TestMemoMatchesStringKeyedReference(t *testing.T) {
	e := NewEngine()
	ref := &stringMemo{m: make(map[string]map[int]float64)}
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		hist := randomHistogram(rng, 1+rng.Intn(6), 1+rng.Intn(9))
		j := rng.Intn(8)
		got := memoM1(e, hist, j)
		want := ref.m1(hist, j)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("memo u(%v, %d) = %v, reference %v", hist, j, got, want)
		}
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

// TestDisclosureIdenticalAcrossCapacities is the equivalence half of the
// acceptance criterion: every disclosure value must be byte-identical
// whether the memo is unbounded, default-bounded, or so small it evicts
// constantly — eviction may cost recomputation, never correctness. Each
// call gets a fresh bucketization of the instance's groups, so it reaches
// its engine instead of a series an earlier call published.
func TestDisclosureIdenticalAcrossCapacities(t *testing.T) {
	engines := map[string]*Engine{
		"unbounded": NewEngineWithConfig(EngineConfig{MemoMaxBytes: -1}),
		"default":   NewEngine(),
		"tiny":      NewEngineWithConfig(EngineConfig{MemoMaxBytes: 1 << 10}),
	}
	rng := rand.New(rand.NewSource(11))
	instances := [][][]string{figure3Groups}
	for i := 0; i < 40; i++ {
		raw := make([]byte, 12)
		rng.Read(raw)
		groups := groupsFromRaw(raw)
		if groups == nil {
			continue
		}
		instances = append(instances, groups)
	}
	for _, groups := range instances {
		for k := 0; k <= 5; k++ {
			want, err := engines["unbounded"].MaxDisclosure(bucket.FromValues(groups...), k)
			if err != nil {
				t.Fatal(err)
			}
			for name, e := range engines {
				got, err := e.MaxDisclosure(bucket.FromValues(groups...), k)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s engine: disclosure %v, unbounded %v (k=%d)", name, got, want, k)
				}
			}
		}
	}
	if st := engines["tiny"].Stats(); st.Evictions == 0 {
		t.Error("tiny engine never evicted; the capacity path went unexercised")
	}
}

// TestCollisionReturnsCorrectValue plants an entry under a fingerprint that
// does not match its own key, simulating a 64-bit collision, and asserts
// the lookup detects the mismatch and computes the true value instead of
// returning the collider's, both for a row the collider's covers and for
// a wider one, whose store must leave the collider in place.
func TestCollisionReturnsCorrectValue(t *testing.T) {
	e := NewEngine()
	hist := []int{3, 2, 1}
	fp := histPrefix(hist)
	s := &e.shards[fp&e.shardMask]
	s.mu.Lock()
	e.storeLocked(s, fp, []int{9, 9, 9}, []float64{1, -42, -42, -42}) // different key, same fp
	s.mu.Unlock()

	for _, j := range []int{2, 5} {
		got := memoM1(e, hist, j)
		want := m1Compute(hist, j)
		if math.Float64bits(got) != math.Float64bits(want.val) {
			t.Fatalf("collision lookup of j = %d returned %v, want %v", j, got, want.val)
		}
		// The resident collider must be untouched (no thrash).
		s.mu.Lock()
		resident := s.entries[fp]
		s.mu.Unlock()
		if resident == nil || len(resident.row) != 4 || resident.row[2] != -42 {
			t.Errorf("collision lookup of j = %d displaced the resident entry", j)
		}
	}
}

// TestRacingMissesStoreOneRow races 32 workers on one cold histogram, half
// asking a narrow row and half a wide one, so misses build rows outside
// the lock and race to store them: every caller must get m1Row's values
// bit for bit, one entry must stay resident holding the wide row, the
// accounting must stay exact, and every lookup must count as a hit or a
// miss.
func TestRacingMissesStoreOneRow(t *testing.T) {
	e := NewEngine()
	hist := []int{4, 3, 2, 1}
	fp := histPrefix(hist)
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
			rows[w] = e.row(fp, hist, widths[w%2])
		}(w)
	}
	close(start)
	wg.Wait()
	for w, row := range rows {
		width := widths[w%2]
		want := m1Row(hist, width-1)
		if len(row) < width || !slices.Equal(f64bits(row[:width]), f64bits(want)) {
			t.Fatalf("worker %d (width %d) got %v, want %v", w, width, row, want)
		}
	}
	st := e.Stats()
	if st.Entries != 1 || st.Hits+st.Misses != workers {
		t.Errorf("stats %+v: want 1 entry and %d lookups", st, workers)
	}
	// A narrow miss that stores last must not shorten the resident row,
	// whatever order the race above took.
	s := &e.shards[fp&e.shardMask]
	s.mu.Lock()
	e.storeLocked(s, fp, hist, m1Row(hist, narrow-1))
	resident := s.entries[fp]
	s.mu.Unlock()
	if resident == nil || !slices.Equal(f64bits(resident.row), f64bits(m1Row(hist, wide-1))) {
		t.Errorf("resident entry %+v, want the width-%d row", resident, wide)
	}
	checkAccounting(t, e)
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

// TestMemoShardCount checks the shard count derived from the memo bound:
// the largest power of two up to 32 leaving each shard 64 KiB or more.
func TestMemoShardCount(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBytes int64
		shards   int
	}{
		{"tiny", 1 << 10, 1},
		{"just under two shards", 128<<10 - 1, 1},
		{"1 MiB", 1 << 20, 16},
		{"2 MiB", 2 << 20, 32},
		{"default", 0, 32},
		{"unbounded", -1, 32},
	} {
		e := NewEngineWithConfig(EngineConfig{MemoMaxBytes: tc.maxBytes})
		if got := len(e.shards); got != tc.shards || e.shardMask != uint64(got-1) {
			t.Errorf("%s: %d shards (mask %#x), want %d", tc.name, got, e.shardMask, tc.shards)
		}
	}
}

// ---------------------------------------------------------------------------
// Histogram rows
// ---------------------------------------------------------------------------

// checkAccounting asserts that each shard's accounted bytes and count are
// exactly those of its resident entries and within the per-shard budget.
func checkAccounting(t *testing.T, e *Engine) {
	t.Helper()
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		var bytes int64
		for _, me := range s.ring {
			bytes += me.cost()
		}
		gotBytes, gotCount, n := s.bytes.Load(), s.count.Load(), len(s.ring)
		s.mu.RUnlock()
		if gotBytes != bytes || gotCount != int64(n) {
			t.Fatalf("shard %d accounts %d bytes / %d entries, holds %d / %d", i, gotBytes, gotCount, bytes, n)
		}
		if e.perShardMax > 0 && bytes > e.perShardMax {
			t.Fatalf("shard %d holds %d bytes, budget %d", i, bytes, e.perShardMax)
		}
	}
}

// TestRowGrowth: asking k = 1 and then k = 11 of one histogram leaves one
// entry holding the longer row, accounted at its exact cost; and an engine
// with a tiny cap keeps every shard within budget, with exact accounting,
// while rows grow and evict.
func TestRowGrowth(t *testing.T) {
	values := []string{"a", "a", "a", "b", "b", "c", "d"}
	bz := bucket.FromValues(values)
	hist := bz.Buckets[0].Histogram()
	e := NewEngine()
	for _, k := range []int{1, 11} {
		if _, err := e.MaxDisclosure(bz, k); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if want := entryCost(len(hist), 11+2); st.Entries != 1 || st.Bytes != want {
		t.Errorf("after k = 1 then 11: %d entries, %d bytes; want 1 entry of %d bytes", st.Entries, st.Bytes, want)
	}
	if st.Misses != 2 || st.Hits != 0 {
		t.Errorf("hits %d, misses %d; want 0 and 2 (one build, one growth)", st.Hits, st.Misses)
	}
	// A shorter request now reads a prefix of the grown row. It asks a
	// fresh bucketization of the same histogram: bz's published series
	// would answer k = 3 without the engine.
	if _, err := e.MaxDisclosure(bucket.FromValues(values), 3); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Errorf("k = 3 after k = 11: %+v, want one hit and one entry", st)
	}
	checkAccounting(t, e)

	tiny := NewEngineWithConfig(EngineConfig{MemoMaxBytes: 2 << 10})
	rng := rand.New(rand.NewSource(19))
	pool := make([][]int, 24)
	for i := range pool {
		pool[i] = randomHistogram(rng, 1+rng.Intn(8), 1+rng.Intn(30))
	}
	for iter := 0; iter < 3000; iter++ {
		hist := pool[rng.Intn(len(pool))]
		j := rng.Intn(14)
		if got, want := memoM1(tiny, hist, j), m1Compute(hist, j).val; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tiny memo u(%v, %d) = %v, want %v", hist, j, got, want)
		}
		checkAccounting(t, tiny)
	}
	if st := tiny.Stats(); st.Evictions == 0 {
		t.Errorf("tiny engine never evicted while rows grew: %+v", st)
	}
}

// TestRowGrowthConcurrent races workers asking random widths of a few
// histograms on a small engine, so rows are built, stored by racing
// misses, grown and evicted concurrently: every value must equal
// m1Compute's and the accounting must stay exact.
func TestRowGrowthConcurrent(t *testing.T) {
	e := NewEngineWithConfig(EngineConfig{MemoMaxBytes: 1 << 10})
	rng := rand.New(rand.NewSource(23))
	pool := make([][]int, 6)
	for i := range pool {
		pool[i] = randomHistogram(rng, 1+rng.Intn(8), 1+rng.Intn(30))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 300; iter++ {
				hist, j := pool[rng.Intn(len(pool))], rng.Intn(14)
				if got, want := memoM1(e, hist, j), m1Compute(hist, j).val; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("u(%v, %d) = %v, want %v", hist, j, got, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	checkAccounting(t, e)
	if st := e.Stats(); st.Evictions == 0 {
		t.Errorf("small engine never evicted while rows grew: %+v", st)
	}
}

// ---------------------------------------------------------------------------
// Capacity bound and churn
// ---------------------------------------------------------------------------

// TestMemoChurnPlateau feeds an endless stream of distinct histograms (the
// daemon's many-datasets workload) through a small memo and asserts the
// accounted bytes never exceed the configured cap while evictions keep the
// cache turning over.
func TestMemoChurnPlateau(t *testing.T) {
	const capBytes = 32 << 10
	e := NewEngineWithConfig(EngineConfig{MemoMaxBytes: capBytes})
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 5000; iter++ {
		hist := randomHistogram(rng, 1+rng.Intn(8), 1+rng.Intn(50))
		memoM1(e, hist, rng.Intn(6))
		if st := e.Stats(); st.Bytes > capBytes {
			t.Fatalf("iter %d: memo bytes %d exceed the %d cap", iter, st.Bytes, capBytes)
		}
	}
	st := e.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions under sustained churn")
	}
	if st.Entries == 0 || st.Bytes == 0 {
		t.Error("memo empty after churn; eviction is over-aggressive")
	}
}

// TestOversizedEntryNotCached: an entry larger than a whole shard's budget
// must be computed correctly but never inserted (it would evict the whole
// shard and then itself).
func TestOversizedEntryNotCached(t *testing.T) {
	e := NewEngineWithConfig(EngineConfig{MemoMaxBytes: 256})
	hist := make([]int, 64) // 64*8 bytes of key alone exceeds the one 256-byte shard
	for i := range hist {
		hist[i] = 64 - i
	}
	got := memoM1(e, hist, 2)
	want := m1Compute(hist, 2)
	if math.Float64bits(got) != math.Float64bits(want.val) {
		t.Fatalf("oversized entry computed %v, want %v", got, want.val)
	}
	if n := e.Stats().Entries; n != 0 {
		t.Errorf("oversized entry was cached (%d entries)", n)
	}
}

// ---------------------------------------------------------------------------
// Benchmarks: steady-state hit path and the churn/eviction cycle. The CI
// bench job archives these (one iteration each) into the perf-trajectory
// JSON artifact.
// ---------------------------------------------------------------------------

// BenchmarkMemoHit measures the warm row lookup (fingerprint + shard map
// + histogram check + CLOCK bit), the per-histogram cost every repeated
// disclosure check pays.
func BenchmarkMemoHit(b *testing.B) {
	e := NewEngine()
	hist := []int{5, 4, 3, 2, 1}
	e.row(histPrefix(hist), hist, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRow = e.row(histPrefix(hist), hist, 6)
	}
}

var sinkRow []float64

// BenchmarkMemoChurn is the bounded-memory proof for the acceptance
// criterion: a stream of mostly-fresh histograms far larger than the cap.
// It reports the plateaued memo_bytes (must sit at/under the configured
// cap) and the eviction count (must be positive).
func BenchmarkMemoChurn(b *testing.B) {
	const capBytes = 64 << 10
	e := NewEngineWithConfig(EngineConfig{MemoMaxBytes: capBytes})
	rng := rand.New(rand.NewSource(1))
	hists := make([][]int, 4096)
	for i := range hists {
		hists[i] = randomHistogram(rng, 1+rng.Intn(8), 1+rng.Intn(50))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = memoM1(e, hists[i%len(hists)], i%6)
	}
	b.StopTimer()
	st := e.Stats()
	b.ReportMetric(float64(st.Bytes), "memo_bytes")
	b.ReportMetric(float64(st.Evictions), "memo_evictions")
	if st.Bytes > capBytes {
		b.Fatalf("memo bytes %d exceed the %d cap", st.Bytes, capBytes)
	}
}

// BenchmarkMaxDisclosureSteadyState measures the full disclosure check on
// a warm engine over buckets with nothing published: what a read of a
// node costs after an append gave it new buckets (a class scan, one memo
// hit per class and MINIMIZE2). Each iteration gets a new bucketization
// of the same buckets, since a reused one would answer from the series
// the first iteration published.
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

// TestPanickedComputeDoesNotPoisonShard: a panic inside m1Row must leave
// the shard usable. A miss runs m1Row outside every lock, so the panic
// strands no lock and stores nothing: a later caller of the same key
// panics itself (per-caller confinement) instead of blocking or reading a
// bogus cached value, and the shard goes on storing rows.
func TestPanickedComputeDoesNotPoisonShard(t *testing.T) {
	e := NewEngine()
	mustPanic := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		memoM1(e, []int{2, 1}, -1) // negative j: the row builder panics
		return false
	}
	if !mustPanic() {
		t.Skip("negative j no longer panics; pick another fault injection")
	}
	// Same key again: must panic again (not hang on a held lock, not
	// return a bogus cached value).
	done := make(chan bool, 1)
	go func() { done <- mustPanic() }()
	select {
	case again := <-done:
		if !again {
			t.Error("second lookup of the panicked key neither panicked nor computed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second lookup deadlocked: the panicked build left the shard locked")
	}
	// The shard (and the whole engine) still serves normal traffic.
	got := memoM1(e, []int{2, 1}, 1)
	want := m1Compute([]int{2, 1}, 1)
	if math.Float64bits(got) != math.Float64bits(want.val) {
		t.Errorf("post-panic m1 = %v, want %v", got, want.val)
	}
	if e.Stats().Entries == 0 {
		t.Error("post-panic insert failed; shard lock likely stranded")
	}
}

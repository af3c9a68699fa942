package core

import (
	"math"
	"math/rand"
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
		"tiny":      NewEngineWithConfig(EngineConfig{MemoMaxBytes: 1 << 10, Shards: 4}),
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
// returning the collider's.
func TestCollisionReturnsCorrectValue(t *testing.T) {
	e := NewEngine()
	hist := []int{3, 2, 1}
	j := 2
	fp := histPrefix(hist)
	s := &e.shards[fp&e.shardMask]
	s.mu.Lock()
	e.storeLocked(s, fp, []int{9, 9, 9}, []float64{1, -42, -42, -42}) // different key, same fp
	s.mu.Unlock()

	got := memoM1(e, hist, j)
	want := m1Compute(hist, j)
	if math.Float64bits(got) != math.Float64bits(want.val) {
		t.Fatalf("collision lookup returned %v, want %v", got, want.val)
	}
	// The resident collider must be untouched (no thrash).
	s.mu.Lock()
	resident := s.entries[fp]
	s.mu.Unlock()
	if resident == nil || resident.row[j] != -42 {
		t.Error("collision displaced the resident entry")
	}
}

// TestInflightDedupCountsOneMiss races many workers on one cold entry: the
// in-flight table must collapse them into a single DP run and a single
// counted miss (the documented Stats double-count bug).
func TestInflightDedupCountsOneMiss(t *testing.T) {
	e := NewEngine()
	hist := []int{4, 3, 2, 1}
	const workers = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	vals := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			vals[w] = memoM1(e, hist, 3)
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if math.Float64bits(vals[w]) != math.Float64bits(vals[0]) {
			t.Fatal("racing workers saw different values")
		}
	}
	st := e.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (in-flight dedup)", st.Misses)
	}
	if st.Hits != workers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, workers-1)
	}
}

// ---------------------------------------------------------------------------
// Histogram rows
// ---------------------------------------------------------------------------

// TestRowMatchesM1Compute: every entry of a MINIMIZE1 row, built from one
// DP table shared by all its atom counts, is bit-identical to m1Compute's
// own table at that atom count.
func TestRowMatchesM1Compute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 2000; iter++ {
		hist := randomHistogram(rng, 1+rng.Intn(15), 1+rng.Intn(40))
		k := rng.Intn(14)
		row := m1Row(hist, k)
		if len(row) != k+1 {
			t.Fatalf("m1Row(%v, %d) has %d entries", hist, k, len(row))
		}
		for j, got := range row {
			if want := m1Compute(hist, j).val; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("m1Row(%v, %d)[%d] = %v, m1Compute %v", hist, k, j, got, want)
			}
		}
	}
}

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

	tiny := NewEngineWithConfig(EngineConfig{MemoMaxBytes: 2 << 10, Shards: 2})
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
// histograms on a small engine, so rows are built, shared in flight,
// grown and evicted concurrently: every value must equal m1Compute's and
// the accounting must stay exact.
func TestRowGrowthConcurrent(t *testing.T) {
	e := NewEngineWithConfig(EngineConfig{MemoMaxBytes: 1 << 10, Shards: 2})
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
	e := NewEngineWithConfig(EngineConfig{MemoMaxBytes: capBytes, Shards: 8})
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
	if st.Entries != e.CacheSize() {
		t.Errorf("Stats().Entries %d != CacheSize() %d", st.Entries, e.CacheSize())
	}
}

// TestResetClearsEverything covers the bounded memo's reset path.
func TestResetClearsEverything(t *testing.T) {
	e := NewEngineWithConfig(EngineConfig{MemoMaxBytes: 4 << 10, Shards: 2})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		memoM1(e, randomHistogram(rng, 1+rng.Intn(5), 10), rng.Intn(5))
	}
	e.Reset()
	st := e.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 {
		t.Errorf("Reset left state behind: %+v", st)
	}
	// The engine must keep working after a reset.
	if got := memoM1(e, []int{2, 1}, 1); got <= 0 || got > 1 {
		t.Errorf("post-reset m1 = %v", got)
	}
}

// TestOversizedEntryNotCached: an entry larger than a whole shard's budget
// must be computed correctly but never inserted (it would evict the whole
// shard and then itself).
func TestOversizedEntryNotCached(t *testing.T) {
	e := NewEngineWithConfig(EngineConfig{MemoMaxBytes: 256, Shards: 2})
	hist := make([]int, 64) // 64*8 bytes of key alone exceeds 128 per shard
	for i := range hist {
		hist[i] = 64 - i
	}
	got := memoM1(e, hist, 2)
	want := m1Compute(hist, 2)
	if math.Float64bits(got) != math.Float64bits(want.val) {
		t.Fatalf("oversized entry computed %v, want %v", got, want.val)
	}
	if n := e.CacheSize(); n != 0 {
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
	e := NewEngineWithConfig(EngineConfig{MemoMaxBytes: capBytes, Shards: 8})
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
// a warm engine — the daemon's hot path — where pooled DP scratch should
// keep allocations near zero.
func BenchmarkMaxDisclosureSteadyState(b *testing.B) {
	e := NewEngine()
	bz := fig3()
	if _, err := e.MaxDisclosure(bz, 4); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := e.MaxDisclosure(bz, 4)
		if err != nil {
			b.Fatal(err)
		}
		sinkF = d
	}
}

var sinkF float64

// TestPanickedComputeDoesNotPoisonShard: a panic inside the DP must leave
// the shard usable — in-flight entry removed, lock released — and later
// callers of the same key must panic themselves (per-caller confinement)
// rather than deadlock on a WaitGroup that will never be Done'd.
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
	// Same key again: must panic again (not hang on a stale in-flight
	// entry, not return a bogus cached value).
	done := make(chan bool, 1)
	go func() { done <- mustPanic() }()
	select {
	case again := <-done:
		if !again {
			t.Error("second lookup of the panicked key neither panicked nor computed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second lookup deadlocked: the panicked in-flight entry was not cleaned up")
	}
	// The shard (and the whole engine) still serves normal traffic.
	got := memoM1(e, []int{2, 1}, 1)
	want := m1Compute([]int{2, 1}, 1)
	if math.Float64bits(got) != math.Float64bits(want.val) {
		t.Errorf("post-panic m1 = %v, want %v", got, want.val)
	}
	if e.CacheSize() == 0 {
		t.Error("post-panic insert failed; shard lock likely stranded")
	}
}

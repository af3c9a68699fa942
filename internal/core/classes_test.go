package core

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ckprivacy/internal/bucket"
)

// TestClassIndexPublication: only a row pass that classifies every bucket
// publishes a bucketization's class index. An IsCKSafe call that stops at
// its decision exit leaves a fresh bucketization unindexed, and a later
// call on it still answers right; a full MaxDisclosure (either Options),
// Series, Witness, or an IsCKSafe that runs to the end publishes it.
func TestClassIndexPublication(t *testing.T) {
	const k = 2
	groups := [][]string{
		{"a", "a", "a", "b", "b", "c", "d", "e"},
		{"a", "b", "c", "d"},
		{"a", "a", "b", "b", "c", "c", "d"},
		{"a", "b", "c", "d"},
	}
	d, err := NewEngine().MaxDisclosure(bucket.FromValues(groups...), k)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()

	// c = 0: bucket 0's all-in-one disclosure already reaches it.
	bz := bucket.FromValues(groups...)
	if bz.Indexed() {
		t.Fatal("a fresh bucketization is indexed")
	}
	if safe, err := e.IsCKSafe(bz, 0, k); err != nil || safe {
		t.Fatalf("IsCKSafe(c=0) = %v, %v; want false", safe, err)
	}
	if bz.Indexed() {
		t.Fatal("an IsCKSafe call that stopped at bucket 0 published an index")
	}
	if got, err := e.MaxDisclosure(bz, k); err != nil || math.Float64bits(got) != math.Float64bits(d) {
		t.Fatalf("MaxDisclosure after an early exit = %v, %v; want %v", got, err, d)
	}
	if !bz.Indexed() {
		t.Fatal("a full MaxDisclosure did not publish an index")
	}

	calls := map[string]func(*bucket.Bucketization) error{
		"IsCKSafe above d": func(bz *bucket.Bucketization) error {
			safe, err := e.IsCKSafe(bz, math.Nextafter(d, 1), k)
			if err == nil && !safe {
				t.Errorf("IsCKSafe(c just above %v) = false", d)
			}
			return err
		},
		"MaxDisclosureOpt forbid": func(bz *bucket.Bucketization) error {
			_, err := e.MaxDisclosureOpt(bz, k, Options{ForbidSameBucketAntecedent: true})
			return err
		},
		"Series": func(bz *bucket.Bucketization) error {
			_, err := e.Series(bz, k)
			return err
		},
		"Witness": func(bz *bucket.Bucketization) error {
			_, err := e.Witness(bz, k, Options{}, nil)
			return err
		},
	}
	for name, call := range calls {
		bz := bucket.FromValues(groups...)
		if err := call(bz); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bz.Indexed() {
			t.Errorf("%s did not publish an index", name)
		}
	}
}

// TestClassIndexIgnoredAfterBucketsChange: a caller that grows or shrinks
// Buckets after a bucketization was indexed breaks its contract (code
// outside this module is not analyzed by snapshotmut), but it gets the
// answers of a bucketization built from the changed buckets, not an
// out-of-range read or a stale answer: an index, a disclosure series
// (either variant), or a Size or MinEntropy cache whose length disagrees
// with len(Buckets) is ignored, and not replaced.
func TestClassIndexIgnoredAfterBucketsChange(t *testing.T) {
	const k = 2
	groups := [][]string{
		{"a", "a", "b", "c"}, {"a", "b", "c", "d"}, {"a", "a", "b", "c"}, {"b", "b", "c", "d", "e"},
	}
	extra := []string{"x", "x", "x", "y"} // the lowest entropy once added
	cases := []struct {
		name   string
		change func(*bucket.Bucketization)
		groups [][]string
	}{
		{"bucket appended", func(bz *bucket.Bucketization) {
			bz.Buckets = append(bz.Buckets, bucket.FromValues(extra).Buckets[0])
		}, [][]string{groups[0], groups[1], groups[2], groups[3], extra}},
		{"bucket removed", func(bz *bucket.Bucketization) {
			bz.Buckets = append(bz.Buckets[:1], bz.Buckets[2:]...)
		}, [][]string{groups[0], groups[2], groups[3]}},
	}
	for _, tc := range cases {
		e := NewEngine()
		bz := bucket.FromValues(groups...)
		if _, err := e.MaxDisclosure(bz, k); err != nil || !bz.Indexed() {
			t.Fatalf("%s: MaxDisclosure error %v, indexed %v", tc.name, err, bz.Indexed())
		}
		if _, err := e.MaxDisclosureOpt(bz, k, classOpts[1]); err != nil {
			t.Fatal(err)
		}
		for v := range classOpts {
			if len(bz.DisclosureSeries(v)) != k+1 {
				t.Fatalf("%s: variant %d series %v not published", tc.name, v, bz.DisclosureSeries(v))
			}
		}
		bz.MinEntropy()
		bz.Size()
		tc.change(bz)
		if bz.Indexed() {
			t.Fatalf("%s: an index that no longer covers every bucket counts as published", tc.name)
		}
		for v := range classOpts {
			if s := bz.DisclosureSeries(v); s != nil {
				t.Fatalf("%s: variant %d series %v that no longer covers every bucket is read", tc.name, v, s)
			}
		}

		ref := bucket.FromValues(tc.groups...)
		if got, want := bz.MinEntropy(), ref.MinEntropy(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: MinEntropy %v, want %v", tc.name, got, want)
		}
		if got, want := bz.Size(), ref.Size(); got != want {
			t.Errorf("%s: Size %d, want %d", tc.name, got, want)
		}
		dForbid, err := e.MaxDisclosureOpt(ref, k, classOpts[1])
		if err != nil {
			t.Fatal(err)
		}
		if got, err := e.MaxDisclosureOpt(bz, k, classOpts[1]); err != nil || math.Float64bits(got) != math.Float64bits(dForbid) {
			t.Errorf("%s: forbid MaxDisclosureOpt %v (%v), want %v", tc.name, got, err, dForbid)
		}
		d, err := e.MaxDisclosure(ref, k)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := e.MaxDisclosure(bz, k); err != nil || math.Float64bits(got) != math.Float64bits(d) {
			t.Errorf("%s: MaxDisclosure %v (%v), want %v", tc.name, got, err, d)
		}
		gotS, err1 := e.Series(bz, k)
		wantS, err2 := e.Series(ref, k)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(gotS, wantS) {
			t.Errorf("%s: Series %v (%v), want %v (%v)", tc.name, gotS, err1, wantS, err2)
		}
		for _, c := range []float64{d, math.Nextafter(d, 1)} {
			if got, err := e.IsCKSafe(bz, c, k); err != nil || got != (d < c) {
				t.Errorf("%s: IsCKSafe(c=%v) = %v (%v), disclosure %v", tc.name, c, got, err, d)
			}
		}
		if bz.Indexed() {
			t.Errorf("%s: a stale index was replaced", tc.name)
		}
		for v := range classOpts {
			if s := bz.DisclosureSeries(v); s != nil {
				t.Errorf("%s: a stale variant %d series was replaced by %v", tc.name, v, s)
			}
		}
	}
}

// sizedGroups returns exactly n buckets drawn with recurring histograms.
func sizedGroups(rng *rand.Rand, n int) [][]string {
	var groups [][]string
	for len(groups) < n {
		groups = append(groups, repeatedHistogramGroups(rng, n-len(groups))...)
	}
	return groups
}

// classCorpus is one bucketization's content, its oracle answers at every
// k <= classMaxK under both Options, and the bucketization the concurrent
// callers currently share, replaced now and then by a fresh one.
type classCorpus struct {
	groups  [][]string
	disc    [classMaxK + 1][2]float64
	wit     [classMaxK + 1][2]Witness
	witErr  [classMaxK + 1][2]bool
	current atomic.Pointer[bucket.Bucketization]
}

const classMaxK = 4

var classOpts = [2]Options{{}, {ForbidSameBucketAntecedent: true}}

func newClassCorpus(groups [][]string) *classCorpus {
	cp := &classCorpus{groups: groups}
	bz := bucket.FromValues(groups...)
	for k := 0; k <= classMaxK; k++ {
		for o, opt := range classOpts {
			rmin, sc := minimize2Oracle(bz, k, opt)
			cp.disc[k][o] = disclosureFromRatio(rmin)
			w, err := witnessFrom(bz, k, rmin, sc, strconv.Itoa)
			cp.wit[k][o], cp.witErr[k][o] = w, err != nil
		}
	}
	cp.current.Store(bucket.FromValues(groups...))
	return cp
}

// TestClassScanConcurrentCalls: 8 goroutines make random MaxDisclosure,
// Series, IsCKSafe and Witness calls on bucketizations of four sizes, each
// replaced now and then by a fresh copy, so pooled class-scan scratch is
// reused at different lengths, fresh scans race to publish, and indexed
// bucketizations are read while other scans classify. Every answer must be
// bit-identical to minimize2Oracle's. Run it under -race: pooled scratch
// that aliased a published index would be overwritten under its readers.
func TestClassScanConcurrentCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var corpora []*classCorpus
	for _, n := range []int{3, 20, 90, 300} {
		corpora = append(corpora, newClassCorpus(sizedGroups(rng, n)))
	}
	e := NewEngine()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 300 && !t.Failed(); op++ {
				cp := corpora[rng.Intn(len(corpora))]
				if rng.Intn(4) == 0 {
					cp.current.Store(bucket.FromValues(cp.groups...))
				}
				bz := cp.current.Load()
				k, o := rng.Intn(classMaxK+1), rng.Intn(2)
				want := cp.disc[k][o]
				switch rng.Intn(4) {
				case 0:
					got, err := e.MaxDisclosureOpt(bz, k, classOpts[o])
					if err != nil || math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%d buckets k=%d %+v: MaxDisclosureOpt %v (%v), oracle %v", len(cp.groups), k, classOpts[o], got, err, want)
					}
				case 1:
					series, err := e.Series(bz, k)
					if err != nil {
						t.Error(err)
						continue
					}
					for kk, got := range series {
						if want := cp.disc[kk][0]; math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%d buckets: Series(%d)[%d] = %v, oracle %v", len(cp.groups), k, kk, got, want)
						}
					}
				case 2:
					d := cp.disc[k][0]
					c := []float64{d, math.Nextafter(d, 0), math.Nextafter(d, 1), rng.Float64()}[rng.Intn(4)]
					safe, err := e.IsCKSafe(bz, c, k)
					if err != nil || safe != (d < c) {
						t.Errorf("%d buckets k=%d: IsCKSafe(c=%v) = %v (%v), oracle disclosure %v", len(cp.groups), k, c, safe, err, d)
					}
				case 3:
					w, err := e.Witness(bz, k, classOpts[o], nil)
					if (err != nil) != cp.witErr[k][o] || !reflect.DeepEqual(w, cp.wit[k][o]) {
						t.Errorf("%d buckets k=%d %+v: witness %+v (%v), oracle %+v", len(cp.groups), k, classOpts[o], w, err, cp.wit[k][o])
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// checkFreshMatchesIndexed asserts that every answer
// checkKernelMatchesOracle checks is the same bits on a bucketization
// freshly built from groups for each call as on bz, which a complete call
// has indexed and whose series it has published under both Options; and
// that every entry of those published series equals a fresh
// bucketization's answer at its own k.
func checkFreshMatchesIndexed(t testing.TB, e *Engine, groups [][]string, bz *bucket.Bucketization, k int, c float64) {
	t.Helper()
	if !bz.Indexed() {
		t.Fatalf("%v: not indexed after a full kernel call", groups)
	}
	fresh := func() *bucket.Bucketization { return bucket.FromValues(groups...) }
	for _, opt := range classOpts {
		published := bz.DisclosureSeries(opt.variant())
		if len(published) < k+1 {
			t.Fatalf("%v %+v: published series %v does not cover k=%d", groups, opt, published, k)
		}
		for kk, want := range published[:k+1] {
			got, err := e.MaxDisclosureOpt(fresh(), kk, opt)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v k=%d %+v: fresh %v (%v), published %v", groups, kk, opt, got, err, want)
			}
		}
	}
	var d float64
	for _, opt := range classOpts {
		got, err1 := e.MaxDisclosureOpt(fresh(), k, opt)
		want, err2 := e.MaxDisclosureOpt(bz, k, opt)
		if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v k=%d %+v: fresh %v (%v), indexed %v (%v)", groups, k, opt, got, err1, want, err2)
		}
		gotW, gotErr := e.Witness(fresh(), k, opt, nil)
		wantW, wantErr := e.Witness(bz, k, opt, nil)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(gotW, wantW) {
			t.Fatalf("%v k=%d %+v: fresh witness %+v (%v), indexed %+v (%v)", groups, k, opt, gotW, gotErr, wantW, wantErr)
		}
		if opt == (Options{}) {
			d = want
		}
	}
	gotS, err1 := e.Series(fresh(), k)
	wantS, err2 := e.Series(bz, k)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for kk := range wantS {
		if math.Float64bits(gotS[kk]) != math.Float64bits(wantS[kk]) {
			t.Fatalf("%v: Series(%d)[%d] fresh %v, indexed %v", groups, k, kk, gotS[kk], wantS[kk])
		}
	}
	for _, cc := range []float64{c, d, math.Nextafter(d, 0), math.Nextafter(d, 1)} {
		got, err1 := e.IsCKSafe(fresh(), cc, k)
		want, err2 := e.IsCKSafe(bz, cc, k)
		if err1 != nil || err2 != nil || got != want {
			t.Fatalf("%v k=%d: IsCKSafe(c=%v) fresh %v (%v), indexed %v (%v)", groups, k, cc, got, err1, want, err2)
		}
	}
}

// seriesMaxK bounds the k of TestSeriesPublishedConcurrent's calls, so
// series are published at many lengths and replaced by longer ones.
const seriesMaxK = 6

// freshAnswers returns, per k <= seriesMaxK and Options, the disclosure a
// fresh bucketization of groups gets from a fresh engine.
func freshAnswers(t *testing.T, groups [][]string) [seriesMaxK + 1][2]float64 {
	t.Helper()
	var out [seriesMaxK + 1][2]float64
	for k := range out {
		for o, opt := range classOpts {
			d, err := NewEngine().MaxDisclosureOpt(bucket.FromValues(groups...), k, opt)
			if err != nil {
				t.Fatal(err)
			}
			out[k][o] = d
		}
	}
	return out
}

// TestSeriesPublishedConcurrent: 8 goroutines mix MaxDisclosure, both
// MaxDisclosureOpt variants, Series and IsCKSafe at random k and c on
// bucketizations of four sizes that they share, so series are computed,
// published, read, and replaced by longer ones while other callers read
// them. Now and then a bucketization is replaced by a fresh copy. Every
// answer must be bit-identical to a fresh bucketization's. Run it under
// -race: a published series must never be written after publication.
func TestSeriesPublishedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	type corpus struct {
		groups  [][]string
		want    [seriesMaxK + 1][2]float64
		current atomic.Pointer[bucket.Bucketization]
	}
	var corpora []*corpus
	for _, n := range []int{2, 15, 70, 250} {
		cp := &corpus{groups: sizedGroups(rng, n)}
		cp.want = freshAnswers(t, cp.groups)
		cp.current.Store(bucket.FromValues(cp.groups...))
		corpora = append(corpora, cp)
	}
	e := NewEngine()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 400 && !t.Failed(); op++ {
				cp := corpora[rng.Intn(len(corpora))]
				if rng.Intn(25) == 0 {
					cp.current.Store(bucket.FromValues(cp.groups...))
				}
				bz := cp.current.Load()
				k, o := rng.Intn(seriesMaxK+1), rng.Intn(2)
				want := cp.want[k][o]
				switch rng.Intn(4) {
				case 0:
					got, err := e.MaxDisclosure(bz, k)
					if want := cp.want[k][0]; err != nil || math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%d buckets k=%d: MaxDisclosure %v (%v), fresh %v", len(cp.groups), k, got, err, want)
					}
				case 1:
					got, err := e.MaxDisclosureOpt(bz, k, classOpts[o])
					if err != nil || math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%d buckets k=%d %+v: MaxDisclosureOpt %v (%v), fresh %v", len(cp.groups), k, classOpts[o], got, err, want)
					}
				case 2:
					series, err := e.Series(bz, k)
					if err != nil || len(series) != k+1 {
						t.Errorf("%d buckets: Series(%d) = %v (%v)", len(cp.groups), k, series, err)
						continue
					}
					for kk, got := range series {
						if want := cp.want[kk][0]; math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%d buckets: Series(%d)[%d] = %v, fresh %v", len(cp.groups), k, kk, got, want)
						}
					}
					series[0] = -1 // a caller's copy: the published series must not change
				case 3:
					d := cp.want[k][0]
					c := []float64{d, math.Nextafter(d, 0), math.Nextafter(d, 1), rng.Float64()}[rng.Intn(4)]
					safe, err := e.IsCKSafe(bz, c, k)
					if err != nil || safe != (d < c) {
						t.Errorf("%d buckets k=%d: IsCKSafe(c=%v) = %v (%v), fresh disclosure %v", len(cp.groups), k, c, safe, err, d)
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestForbidSeriesMatchesPointRuns: the ForbidSameBucketAntecedent series
// that one MINIMIZE2 run at K publishes must equal, bit for bit, a run at
// each k <= K on a fresh bucketization and the recursive oracle. This is
// the state-independence argument series relies on, for the second
// variant: no DP state's value depends on the k the tables were sized for.
func TestForbidSeriesMatchesPointRuns(t *testing.T) {
	forbid := Options{ForbidSameBucketAntecedent: true}
	rng := rand.New(rand.NewSource(24))
	e := NewEngine()
	for iter := 0; iter < 200; iter++ {
		groups := repeatedHistogramGroups(rng, 10)
		bz := bucket.FromValues(groups...)
		maxK := rng.Intn(9)
		if _, err := e.MaxDisclosureOpt(bz, maxK, forbid); err != nil {
			t.Fatal(err)
		}
		series := bz.DisclosureSeries(forbid.variant())
		if len(series) != maxK+1 {
			t.Fatalf("%v: published %d-entry series after a run at k=%d", groups, len(series), maxK)
		}
		if bz.DisclosureSeries(Options{}.variant()) != nil {
			t.Fatalf("%v: a forbid run published the default series", groups)
		}
		for k, got := range series {
			point, err := NewEngine().MaxDisclosureOpt(bucket.FromValues(groups...), k, forbid)
			if err != nil {
				t.Fatal(err)
			}
			rmin, _ := minimize2Oracle(bz, k, forbid)
			if oracle := disclosureFromRatio(rmin); math.Float64bits(got) != math.Float64bits(point) || math.Float64bits(got) != math.Float64bits(oracle) {
				t.Fatalf("%v: forbid series[%d] = %v, point run %v, oracle %v", groups, k, got, point, oracle)
			}
		}
	}
}

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

// histPrefix is the memo key of a histogram: bucket.HistogramHash, the hash
// a class scan stores per histogram class.
func histPrefix(hist []int) uint64 { return bucket.HistogramHash(hist) }

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
// out-of-range read: an index or MinEntropy cache whose length disagrees
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
		bz.MinEntropy()
		tc.change(bz)
		if bz.Indexed() {
			t.Fatalf("%s: an index that no longer covers every bucket counts as published", tc.name)
		}

		ref := bucket.FromValues(tc.groups...)
		if got, want := bz.MinEntropy(), ref.MinEntropy(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: MinEntropy %v, want %v", tc.name, got, want)
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
	views := makeViews(bucket.FromValues(groups...))
	for k := 0; k <= classMaxK; k++ {
		for o, opt := range classOpts {
			rmin, sc := minimize2Oracle(views, k, opt)
			cp.disc[k][o] = disclosureFromRatio(rmin)
			w, err := witnessFrom(views, k, rmin, sc, strconv.Itoa)
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
// has indexed.
func checkFreshMatchesIndexed(t testing.TB, e *Engine, groups [][]string, bz *bucket.Bucketization, k int, c float64) {
	t.Helper()
	if !bz.Indexed() {
		t.Fatalf("%v: not indexed after a full kernel call", groups)
	}
	fresh := func() *bucket.Bucketization { return bucket.FromValues(groups...) }
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

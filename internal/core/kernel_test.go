package core

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/worlds"
)

// minimize2Oracle is the recursive MINIMIZE2 the flat kernel replaced, kept
// as its test oracle: a memoized top-down recursion that computes
// MINIMIZE1 with the recursive oracle m1OracleCompute for every (bucket,
// cnt) it visits, sharing no memo, row or MINIMIZE1 code with the kernel.
// Its tables are allocated per call and NaN-marked for "not yet
// computed"; the returned scratch is never pooled.
func minimize2Oracle(views []bucketView, k int, opt Options) (float64, *m2Scratch) {
	nb := len(views)
	states := (nb + 1) * (k + 1) * 2
	sc := &m2Scratch{val: make([]float64, states), choice: make([]m2choice, states), k: k}
	for i := range sc.val {
		sc.val[i] = math.NaN()
	}
	var rec func(i, h int, placed bool) float64
	rec = func(i, h int, placed bool) float64 {
		pi := 0
		if placed {
			pi = 1
		}
		if i == nb {
			if placed {
				// Any unplaced antecedent atoms are spent on tautologies,
				// which impose no constraint (factor 1).
				return 1
			}
			return math.Inf(1)
		}
		at := sc.idx(i, h, pi)
		if v := sc.val[at]; !math.IsNaN(v) {
			return v
		}
		v := views[i]
		ratio := float64(v.n) / float64(v.top)
		best := math.Inf(1)
		var bestChoice m2choice
		for cnt := 0; cnt <= h; cnt++ {
			u := m1OracleCompute(v.hist, cnt).val
			// Option 1: A is not in this bucket.
			if cand := u * rec(i+1, h-cnt, placed); cand < best {
				best = cand
				bestChoice = m2choice{cnt: cnt, placeHere: false, valid: true}
			}
			// Option 2: A is in this bucket (with cnt local antecedents).
			if !placed && (!opt.ForbidSameBucketAntecedent || cnt == 0) {
				w := m1OracleCompute(v.hist, cnt+1).val * ratio
				if cand := w * rec(i+1, h-cnt, true); cand < best {
					best = cand
					bestChoice = m2choice{cnt: cnt, placeHere: true, valid: true}
				}
			}
		}
		sc.val[at] = best
		sc.choice[at] = bestChoice
		return best
	}
	return rec(0, k, false), sc
}

// repeatedHistogramGroups returns 1..maxBuckets buckets, most of them drawn
// from a small pool of histograms under a fresh relabelling of the values,
// so equal histograms recur (with different values) and the row pass's
// dedupe copies rows between buckets whose witnesses name other values.
func repeatedHistogramGroups(rng *rand.Rand, maxBuckets int) [][]string {
	pool := make([][]int, 1+rng.Intn(3))
	for i := range pool {
		pool[i] = randomHistogram(rng, 1+rng.Intn(5), 1+rng.Intn(6))
	}
	groups := make([][]string, 1+rng.Intn(maxBuckets))
	for b := range groups {
		hist := pool[rng.Intn(len(pool))]
		if rng.Intn(5) == 0 {
			hist = randomHistogram(rng, 1+rng.Intn(5), 1+rng.Intn(6))
		}
		label := rng.Perm(6)
		for v, cnt := range hist {
			for t := 0; t < cnt; t++ {
				groups[b] = append(groups[b], string(rune('a'+label[v])))
			}
		}
		rng.Shuffle(len(groups[b]), func(i, j int) {
			groups[b][i], groups[b][j] = groups[b][j], groups[b][i]
		})
	}
	return groups
}

// checkKernelMatchesOracle asserts, for one bucketization and k, that the
// kernel's MaxDisclosureOpt and Witness are bit-identical to the oracle's
// under both Options, that every entry of the single-pass Series(bz, k) is
// bit-identical to the oracle at its own k, and that IsCKSafe is
// MaxDisclosure < c at c, at the disclosure d itself and at its two float
// neighbours. It returns d.
func checkKernelMatchesOracle(t testing.TB, e *Engine, bz *bucket.Bucketization, k int, c float64) float64 {
	t.Helper()
	views := makeViews(bz)
	var d float64
	for _, opt := range []Options{{}, {ForbidSameBucketAntecedent: true}} {
		got, err := e.MaxDisclosureOpt(bz, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		rmin, sc := minimize2Oracle(views, k, opt)
		if want := disclosureFromRatio(rmin); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v k=%d %+v: kernel %v, oracle %v", bz.Buckets, k, opt, got, want)
		}
		gotW, gotErr := e.Witness(bz, k, opt, nil)
		wantW, wantErr := witnessFrom(views, k, rmin, sc, strconv.Itoa)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(gotW, wantW) {
			t.Fatalf("%v k=%d %+v: witness %+v (%v), oracle %+v (%v)", bz.Buckets, k, opt, gotW, gotErr, wantW, wantErr)
		}
		if opt == (Options{}) {
			d = got
		}
	}
	series, err := e.Series(bz, k)
	if err != nil {
		t.Fatal(err)
	}
	for kk, got := range series {
		rmin, _ := minimize2Oracle(views, kk, Options{})
		if want := disclosureFromRatio(rmin); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: Series(%d)[%d] = %v, oracle %v", bz.Buckets, k, kk, got, want)
		}
	}
	for _, cc := range []float64{c, d, math.Nextafter(d, 0), math.Nextafter(d, 1)} {
		safe, err := e.IsCKSafe(bz, cc, k)
		if err != nil {
			t.Fatal(err)
		}
		if safe != (d < cc) {
			t.Fatalf("%v k=%d: IsCKSafe(c=%v) = %v, MaxDisclosure %v", bz.Buckets, k, cc, safe, d)
		}
	}
	return d
}

// TestKernelMatchesOracle pins the flat kernel to the recursive oracle on
// randomized bucketizations with recurring histograms and k up to 10:
// bit-identical disclosure and witness under both Options, identical
// Series, IsCKSafe equal to MaxDisclosure < c at and around the boundary,
// and IsCKSafe equal to the exact big.Rat decision away from it.
func TestKernelMatchesOracle(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 400; iter++ {
		bz := bucket.FromValues(repeatedHistogramGroups(rng, 12)...)
		k := rng.Intn(11)
		c := rng.Float64()
		d := checkKernelMatchesOracle(t, e, bz, k, c)

		if k <= 6 && math.Abs(c-d) > 1e-9 {
			exact, err := e.IsCKSafeExact(bz, new(big.Rat).SetFloat64(c), k)
			if err != nil {
				t.Fatal(err)
			}
			if safe, _ := e.IsCKSafe(bz, c, k); safe != exact {
				t.Fatalf("%v k=%d c=%v: IsCKSafe %v, IsCKSafeExact %v", bz.Buckets, k, c, safe, exact)
			}
		}
	}
}

// TestIsCKSafeMatchesBruteForce decides (c,k)-safety on tiny instances
// with the kernel and with the worlds brute force's exact maximum, at
// thresholds away from the float boundary.
func TestIsCKSafeMatchesBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("exponential oracle")
	}
	e := NewEngine()
	rng := rand.New(rand.NewSource(15))
	checked := 0
	for iter := 0; iter < 80; iter++ {
		raw := make([]byte, 12)
		rng.Read(raw)
		groups := groupsFromRaw(raw)
		if groups == nil {
			continue
		}
		k := rng.Intn(3)
		res, err := asInstance(t, groups).MaxDisclosureCommonConsequent(k, worlds.BruteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []float64{rng.Float64(), ratFloat(res.Prob) + 1e-6, ratFloat(res.Prob) - 1e-6} {
			if c < 0 || c > 1 {
				continue
			}
			safe, err := e.IsCKSafe(bucket.FromValues(groups...), c, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := res.Prob.Cmp(new(big.Rat).SetFloat64(c)) < 0; safe != want {
				t.Fatalf("groups=%v k=%d c=%v: IsCKSafe %v, brute force %s", groups, k, c, safe, res.Prob.RatString())
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d effective comparisons", checked)
	}
}

// memoLookups is the number of MINIMIZE1 row lookups an engine has made.
func memoLookups(e *Engine) uint64 {
	st := e.Stats()
	return st.Hits + st.Misses
}

// TestKernelLookupsPerDistinctHistogram: a MaxDisclosure call over D
// distinct histograms makes exactly D memo lookups, however often each
// histogram recurs, and every resident row holds u[0] = 1 and covers the
// atom counts 0..k+1 the kernel reads. The first call indexes the
// bucketization; the second reads the index, makes the same D lookups and
// returns the bits of a fresh bucketization's call. The second call asks
// k+1, which the series the first call published does not cover, so it
// reaches the engine.
func TestKernelLookupsPerDistinctHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for iter := 0; iter < 50; iter++ {
		groups := repeatedHistogramGroups(rng, 12)
		bz := bucket.FromValues(groups...)
		distinct := make(map[string]bool)
		for _, b := range bz.Buckets {
			distinct[b.Signature()] = true
		}
		k := rng.Intn(8)
		e := NewEngine()
		for call := 1; call <= 2; call++ {
			kc := k + call - 1
			d, err := e.MaxDisclosure(bz, kc)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := memoLookups(e), uint64(call*len(distinct)); got != want {
				t.Fatalf("%d buckets, %d distinct histograms, k=%d: %d lookups after %d calls, want %d",
					len(bz.Buckets), len(distinct), k, got, call, want)
			}
			if !bz.Indexed() {
				t.Fatalf("call %d did not leave the bucketization indexed", call)
			}
			fresh, err := NewEngine().MaxDisclosure(bucket.FromValues(groups...), kc)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(d) != math.Float64bits(fresh) {
				t.Fatalf("call %d at k=%d returned %v, fresh bucketization %v", call, kc, d, fresh)
			}
		}
		for i := range e.shards {
			for _, me := range e.shards[i].entries {
				if len(me.row) < k+2 || me.row[0] != 1 {
					t.Fatalf("memo row %v for %v: want u[0] = 1 and length >= %d", me.row, me.hist, k+2)
				}
			}
		}
	}
}

// TestIsCKSafeStopsAtFirstReachingBucket: when bucket 0 alone already
// reaches c (A and all k antecedents placed there), IsCKSafe answers from
// bucket 0's row, one lookup, and never reads the other buckets.
func TestIsCKSafeStopsAtFirstReachingBucket(t *testing.T) {
	const k = 2
	// Bucket 0 has more values than k+1 atoms can rule out, so its bound
	// r0 is positive and c below 1.
	groups := [][]string{
		{"a", "a", "a", "b", "b", "c", "d", "e"},
		{"a", "b", "c", "d"},
		{"a", "a", "b", "b", "c", "c", "d"},
	}
	bz := bucket.FromValues(groups...)
	views := makeViews(bz)
	r0 := m1Compute(views[0].hist, k+1).val * views[0].ratio()
	c := disclosureFromRatio(r0)

	e := NewEngine()
	safe, err := e.IsCKSafe(bz, c, k)
	if err != nil {
		t.Fatal(err)
	}
	if safe {
		t.Fatalf("IsCKSafe(c=%v) = true; bucket 0 alone reaches c", c)
	}
	if got := memoLookups(e); got != 1 {
		t.Errorf("early exit made %d memo lookups, want 1 (bucket 0's row only)", got)
	}
	// One ulp above bucket 0's bound the exit must not fire on bucket 0, and
	// the verdict must still be MaxDisclosure < c.
	d, err := NewEngine().MaxDisclosure(bz, k)
	if err != nil {
		t.Fatal(err)
	}
	above := math.Nextafter(c, 1)
	if safe, _ := NewEngine().IsCKSafe(bz, above, k); safe != (d < above) {
		t.Errorf("IsCKSafe(c=%v) = %v, MaxDisclosure %v", above, safe, d)
	}
}

// FuzzKernelMatchesOracle decodes bytes into at most 8 buckets of at most
// 10 tuples over at most 5 values, k <= 6 and a threshold c, and asserts
// the kernel is bit-identical to minimize2Oracle (disclosure and witness,
// both Options, and Series(bz, k) at every k' <= k) and that IsCKSafe
// equals MaxDisclosure < c. Every answer is checked twice: through the
// class index the first full call published, against the oracle, and on a
// bucketization fresh at the call, against the indexed answer.
func FuzzKernelMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 128, 1, 4, 0, 0, 1, 1, 4, 0, 0, 2, 3})
	f.Add([]byte{3, 200, 3, 5, 0, 0, 1, 1, 2, 5, 0, 0, 3, 4, 1, 2, 3, 0, 1})
	f.Add([]byte{6, 0, 7, 9, 0, 1, 2, 3, 4, 0, 1, 2, 3, 9, 0, 1, 2, 3, 4, 0, 1, 2, 3})
	e := NewEngine()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k := int(data[0]) % 7
		c := float64(data[1]) / 255
		nb := 1 + int(data[2])%8
		var groups [][]string
		for pos := 3; len(groups) < nb && pos < len(data); {
			size := 1 + int(data[pos])%10
			pos++
			var g []string
			for ; len(g) < size && pos < len(data); pos++ {
				g = append(g, string(rune('a'+data[pos]%5)))
			}
			if len(g) == 0 {
				break
			}
			groups = append(groups, g)
		}
		if len(groups) == 0 {
			return
		}
		bz := bucket.FromValues(groups...)
		checkKernelMatchesOracle(t, e, bz, k, c)
		checkFreshMatchesIndexed(t, e, groups, bz, k, c)
	})
}

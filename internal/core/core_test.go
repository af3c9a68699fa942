package core

import (
	"math"
	"math/big"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/worlds"
)

const eps = 1e-9

// figure3Groups is the paper's Figure 3 bucketization.
var figure3Groups = [][]string{
	{"flu", "flu", "lung", "lung", "mumps"},
	{"flu", "flu", "breast", "ovarian", "heart"},
}

func fig3() *bucket.Bucketization {
	return bucket.FromValues(figure3Groups...)
}

// asInstance mirrors a FromValues bucketization into a worlds.Instance with
// matching person names (decimal tuple ids).
func asInstance(t *testing.T, groups [][]string) worlds.Instance {
	t.Helper()
	var bs []worlds.Bucket
	next := 0
	for _, g := range groups {
		wb := worlds.Bucket{}
		for _, v := range g {
			wb.Persons = append(wb.Persons, strconv.Itoa(next))
			wb.Values = append(wb.Values, v)
			next++
		}
		bs = append(bs, wb)
	}
	in, err := worlds.New(bs...)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func ratFloat(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}

func TestMaxDisclosureFigure3HandValues(t *testing.T) {
	e := NewEngine()
	cases := []struct {
		k    int
		want float64
	}{
		{0, 2.0 / 5},
		{1, 2.0 / 3}, // lung → flu within the male bucket (see "Deviations from the paper" in docs/PAPER-MAP.md)
		{2, 1.0},     // ¬lung ∧ ¬mumps pins flu
		{5, 1.0},
	}
	for _, c := range cases {
		got, err := e.MaxDisclosure(fig3(), c.k)
		if err != nil {
			t.Fatalf("k=%d: %v", c.k, err)
		}
		if math.Abs(got-c.want) > eps {
			t.Errorf("MaxDisclosure(fig3, %d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestMaxDisclosureCrossBucketOption(t *testing.T) {
	// With antecedents restricted to other buckets, the Figure 3 maximum is
	// the paper's quoted 10/19 (flu in one bucket implying flu in the
	// other).
	e := NewEngine()
	got, err := e.MaxDisclosureOpt(fig3(), 1, Options{ForbidSameBucketAntecedent: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10.0/19) > eps {
		t.Errorf("cross-bucket max = %v, want 10/19 = %v", got, 10.0/19)
	}
	// The restriction can only lower the maximum.
	unres, err := e.MaxDisclosure(fig3(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got > unres+eps {
		t.Errorf("restricted %v exceeds unrestricted %v", got, unres)
	}
}

func TestMaxDisclosureUniformBucket(t *testing.T) {
	bz := bucket.FromValues([]string{"a", "b", "c", "d"})
	e := NewEngine()
	want := []float64{0.25, 1.0 / 3, 0.5, 1.0, 1.0}
	for k, w := range want {
		got, err := e.MaxDisclosure(bz, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-w) > eps {
			t.Errorf("k=%d: got %v, want %v", k, got, w)
		}
	}
}

func TestMaxDisclosureSingletonBucket(t *testing.T) {
	bz := bucket.FromValues([]string{"a"})
	got, err := MaxDisclosure(bz, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("singleton bucket k=0 disclosure = %v, want 1", got)
	}
}

func TestArgumentValidation(t *testing.T) {
	e := NewEngine()
	if _, err := e.MaxDisclosure(nil, 1); err == nil {
		t.Error("nil bucketization accepted")
	}
	if _, err := e.MaxDisclosure(&bucket.Bucketization{}, 1); err == nil {
		t.Error("empty bucketization accepted")
	}
	if _, err := e.MaxDisclosure(fig3(), -1); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := e.IsCKSafe(fig3(), -0.1, 1); err == nil {
		t.Error("c < 0 accepted")
	}
	if _, err := e.IsCKSafe(fig3(), 1.1, 1); err == nil {
		t.Error("c > 1 accepted")
	}
	if _, err := e.IsCKSafe(fig3(), math.NaN(), 1); err == nil {
		t.Error("c = NaN accepted")
	}
	if _, err := e.Series(nil, 3); err == nil {
		t.Error("Series on nil accepted")
	}
	if _, err := NegationMaxDisclosure(nil, 1); err == nil {
		t.Error("negation on nil accepted")
	}
	if _, err := e.Witness(nil, 1, Options{}, nil); err == nil {
		t.Error("witness on nil accepted")
	}
}

func TestIsCKSafe(t *testing.T) {
	e := NewEngine()
	safe, err := e.IsCKSafe(fig3(), 0.7, 1) // max disclosure 2/3 < 0.7
	if err != nil || !safe {
		t.Errorf("IsCKSafe(0.7, 1) = %v, %v; want true", safe, err)
	}
	safe, err = e.IsCKSafe(fig3(), 0.6, 1)
	if err != nil || safe {
		t.Errorf("IsCKSafe(0.6, 1) = %v, %v; want false", safe, err)
	}
	// Strict inequality: threshold exactly at the maximum is unsafe.
	safe, err = e.IsCKSafe(fig3(), 2.0/3, 1)
	if err != nil || safe {
		t.Errorf("IsCKSafe(2/3, 1) = %v, %v; want false (strict)", safe, err)
	}
}

func TestSeriesMatchesPointQueries(t *testing.T) {
	e := NewEngine()
	series, err := e.Series(fig3(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range series {
		got, err := NewEngine().MaxDisclosure(fig3(), k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-s) > eps {
			t.Errorf("k=%d: series %v, point %v", k, s, got)
		}
		if k > 0 && series[k] < series[k-1]-eps {
			t.Errorf("series not monotone at k=%d: %v", k, series)
		}
	}
}

func TestDisclosureReachesOneAtDistinctMinusOne(t *testing.T) {
	// The male bucket has 3 distinct values, so k = 2 forces certainty;
	// the paper's parallel claim is disclosure 1 at k = 13 with 14 values.
	e := NewEngine()
	got, err := e.MaxDisclosure(fig3(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("k=2 disclosure = %v, want 1", got)
	}
}

// TestEngineCacheReuse: a disclosure call publishes each histogram
// class's row on the class's first bucket, m1Row's bit for bit, and a
// second call on a fresh bucketization over the same buckets reads those
// rows and builds none.
func TestEngineCacheReuse(t *testing.T) {
	e := NewEngine()
	bz := fig3()
	if _, err := e.MaxDisclosure(bz, 4); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Misses == 0 {
		t.Fatal("no row built by the first computation")
	}
	for _, b := range bz.Buckets {
		u := b.M1Row(4 + 2)
		if want := m1Row(b.Histogram(), 4+1); u == nil || !slices.Equal(f64bits(u), f64bits(want)) {
			t.Fatalf("bucket %v holds row %v, m1Row %v", b.Histogram(), u, want)
		}
	}
	if _, err := e.MaxDisclosure(&bucket.Bucketization{Buckets: bz.Buckets}, 4); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got.Misses != st.Misses || got.Hits != st.Hits+uint64(len(bz.Buckets)) {
		t.Errorf("repeat over the same buckets: %+v after %+v, want one hit per bucket and no miss", got, st)
	}
}

// groupsFromRaw decodes random bytes into 1–3 small buckets over ≤3
// values; three-bucket instances exercise MINIMIZE2's full distribution
// logic (antecedents split across buckets on both sides of the target).
func groupsFromRaw(raw []byte) [][]string {
	if len(raw) < 3 {
		return nil
	}
	nBuckets := 1 + int(raw[0])%3
	groups := make([][]string, nBuckets)
	pos := 1
	for b := 0; b < nBuckets; b++ {
		size := 1 + int(raw[pos%len(raw)])%3
		if nBuckets < 3 {
			size = 1 + int(raw[pos%len(raw)])%4
		}
		pos++
		for i := 0; i < size; i++ {
			v := string(rune('a' + raw[pos%len(raw)]%3))
			groups[b] = append(groups[b], v)
			pos++
		}
	}
	return groups
}

// TestDPMatchesOracle is the central correctness test: on random small
// instances, the O(|B|k³) DP equals the exponential exact oracle restricted
// to common-consequent simple implications (which Theorem 9 — itself
// validated in internal/worlds — proves is the true maximum over
// L^k_basic).
func TestDPMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("exponential oracle")
	}
	e := NewEngine()
	checked := 0
	f := func(raw []byte, kRaw uint8) bool {
		groups := groupsFromRaw(raw)
		if groups == nil {
			return true
		}
		k := int(kRaw) % 3
		bz := bucket.FromValues(groups...)
		dp, err := e.MaxDisclosure(bz, k)
		if err != nil {
			return false
		}
		in := asInstance(t, groups)
		res, err := in.MaxDisclosureCommonConsequent(k, worlds.BruteOptions{})
		if err != nil {
			return false
		}
		checked++
		if math.Abs(dp-ratFloat(res.Prob)) > eps {
			t.Logf("groups=%v k=%d dp=%v oracle=%s phi=%v", groups, k, dp, res.Prob.RatString(), res.Phi)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if checked < 40 {
		t.Fatalf("only %d effective comparisons", checked)
	}
}

// TestCrossBucketOptionMatchesOracle validates the restricted adversary
// class (Options.ForbidSameBucketAntecedent) against its own exact oracle.
func TestCrossBucketOptionMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("exponential oracle")
	}
	e := NewEngine()
	checked := 0
	f := func(raw []byte, kRaw uint8) bool {
		groups := groupsFromRaw(raw)
		if groups == nil {
			return true
		}
		k := int(kRaw) % 3
		bz := bucket.FromValues(groups...)
		dp, err := e.MaxDisclosureOpt(bz, k, Options{ForbidSameBucketAntecedent: true})
		if err != nil {
			return false
		}
		in := asInstance(t, groups)
		res, err := in.MaxDisclosureCrossBucket(k, worlds.BruteOptions{})
		if err != nil {
			return false
		}
		checked++
		if math.Abs(dp-ratFloat(res.Prob)) > eps {
			t.Logf("groups=%v k=%d dp=%v oracle=%s phi=%v",
				groups, k, dp, res.Prob.RatString(), res.Phi)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if checked < 30 {
		t.Fatalf("only %d effective comparisons", checked)
	}
}

// TestTheorem14Monotonicity property-checks the paper's monotonicity
// theorem: merging buckets never increases maximum disclosure.
func TestTheorem14Monotonicity(t *testing.T) {
	e := NewEngine()
	f := func(raw []byte, kRaw, pick uint8) bool {
		groups := groupsFromRaw(raw)
		if groups == nil || len(groups) < 2 {
			return true
		}
		k := int(kRaw) % 5
		bz := bucket.FromValues(groups...)
		merged, err := bz.Merge(0, 1)
		if err != nil {
			return false
		}
		before, err1 := e.MaxDisclosure(bz, k)
		after, err2 := e.MaxDisclosure(merged, k)
		if err1 != nil || err2 != nil {
			return false
		}
		return after <= before+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestK0EqualsTopFraction checks the no-knowledge baseline against the
// closed form max_b n_b(s⁰)/n_b.
func TestK0EqualsTopFraction(t *testing.T) {
	e := NewEngine()
	f := func(raw []byte) bool {
		groups := groupsFromRaw(raw)
		if groups == nil {
			return true
		}
		bz := bucket.FromValues(groups...)
		dp, err := e.MaxDisclosure(bz, 0)
		if err != nil {
			return false
		}
		return math.Abs(dp-bz.MaxTopFraction()) < eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWitnessAchievesDisclosure verifies reconstructed witnesses: the exact
// posterior of the witness formula (computed by the random-worlds oracle)
// must equal the DP's claimed maximum.
func TestWitnessAchievesDisclosure(t *testing.T) {
	if testing.Short() {
		t.Skip("exact oracle")
	}
	e := NewEngine()
	f := func(raw []byte, kRaw uint8) bool {
		groups := groupsFromRaw(raw)
		if groups == nil {
			return true
		}
		k := int(kRaw) % 3
		bz := bucket.FromValues(groups...)
		w, err := e.Witness(bz, k, Options{}, nil)
		if err != nil {
			return false
		}
		if len(w.Implications) != k {
			return false
		}
		in := asInstance(t, groups)
		p, err := in.CondProb(w.Target, w.Phi())
		if err != nil {
			t.Logf("groups=%v k=%d witness inconsistent: %v", groups, k, err)
			return false
		}
		if math.Abs(w.Disclosure-ratFloat(p)) > eps {
			t.Logf("groups=%v k=%d witness=%v claims %v, oracle %s", groups, k, w, w.Disclosure, p.RatString())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestWitnessFigure3(t *testing.T) {
	e := NewEngine()
	w, err := e.Witness(fig3(), 1, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Disclosure-2.0/3) > eps {
		t.Errorf("witness disclosure = %v, want 2/3", w.Disclosure)
	}
	if w.TargetBucket != 0 && w.TargetBucket != 1 {
		t.Errorf("TargetBucket = %d", w.TargetBucket)
	}
	if len(w.Implications) != 1 {
		t.Fatalf("witness has %d implications", len(w.Implications))
	}
	// The maximizing knowledge is a within-bucket, same-person implication
	// (the negation ¬lung in disguise): antecedent and consequent share the
	// person, and the consequent names the bucket's top value "flu".
	imp := w.Implications[0]
	if imp.Cons != w.Target {
		t.Error("implication consequent differs from target")
	}
	if imp.Ante.Person != w.Target.Person {
		t.Errorf("expected same-person witness, got %v", imp)
	}
	if w.Target.Value != "flu" {
		t.Errorf("target value = %q, want flu", w.Target.Value)
	}
}

func TestWitnessCrossBucketFigure3(t *testing.T) {
	e := NewEngine()
	w, err := e.Witness(fig3(), 1, Options{ForbidSameBucketAntecedent: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Disclosure-10.0/19) > eps {
		t.Errorf("cross-bucket witness disclosure = %v, want 10/19", w.Disclosure)
	}
	imp := w.Implications[0]
	if imp.Ante.Value != "flu" || imp.Cons.Value != "flu" {
		t.Errorf("expected flu→flu witness, got %v", imp)
	}
	// Antecedent person must live in a different bucket from the target.
	bz := fig3()
	ai, _ := strconv.Atoi(imp.Ante.Person)
	ti, _ := strconv.Atoi(w.Target.Person)
	ab, err := bz.BucketOf(ai)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := bz.BucketOf(ti)
	if err != nil {
		t.Fatal(err)
	}
	if ab == tb {
		t.Errorf("cross-bucket witness uses same bucket: %v", w)
	}
	// The oracle agrees with the claimed probability.
	in := asInstance(t, figure3Groups)
	p, err := in.CondProb(w.Target, w.Phi())
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(big.NewRat(10, 19)) != 0 {
		t.Errorf("oracle gives %s, want 10/19", p.RatString())
	}
}

func TestWitnessPadsWithTautologies(t *testing.T) {
	// Bucket {a}: disclosure is 1 at k=0; any k must still return k
	// implications, padded with tautologies.
	e := NewEngine()
	w, err := e.Witness(bucket.FromValues([]string{"a", "a"}), 3, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Implications) != 3 {
		t.Fatalf("got %d implications, want 3", len(w.Implications))
	}
	if w.Disclosure != 1 {
		t.Errorf("disclosure = %v", w.Disclosure)
	}
}

func TestConcurrentEngineUse(t *testing.T) {
	e := NewEngine()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(k int) {
			_, err := e.MaxDisclosure(fig3(), k%5)
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

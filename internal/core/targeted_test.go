package core

import (
	"math"
	"testing"
	"testing/quick"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/logic"
	"ckprivacy/internal/worlds"
)

func TestTargetedHandValues(t *testing.T) {
	// Figure 3's male bucket: flu×2 (rank 0), lung×2 (rank 1), mumps (rank
	// 2). Hand-derived worst cases for k=1:
	//   flu:   lung → flu            gives 2/3
	//   lung:  flu → lung            gives (2/5)/((2/5)+(1/5)) = 2/3
	//   mumps: flu → mumps           gives (1/5)/((1/5)+(2/5)) = 1/3
	e := NewEngine()
	bz := fig3()
	cases := []struct {
		bucket int
		value  string
		k      int
		want   float64
	}{
		{0, "flu", 0, 2.0 / 5},
		{0, "flu", 1, 2.0 / 3},
		{0, "lung", 1, 2.0 / 3},
		{0, "mumps", 1, 1.0 / 3},
		{0, "mumps", 0, 1.0 / 5},
		{0, "flu", 2, 1.0},
		{0, "mumps", 2, 1.0}, // ¬flu ∧ ¬lung pins mumps
		{1, "breast", 1, 1.0 / 3},
		// Bucket 1 has histogram {2,1,1,1}: the worst case for flu is two
		// persons both avoiding flu, (2/5)/((2/5)+(3/5)(2/4)) = 4/7.
		{1, "flu", 1, 4.0 / 7},
	}
	for _, c := range cases {
		got, err := e.TargetedMaxDisclosure(bz, c.bucket, c.value, c.k)
		if err != nil {
			t.Fatalf("(%d,%s,k=%d): %v", c.bucket, c.value, c.k, err)
		}
		if math.Abs(got-c.want) > eps {
			t.Errorf("Targeted(%d, %s, k=%d) = %v, want %v", c.bucket, c.value, c.k, got, c.want)
		}
	}
}

func TestTargetedArguments(t *testing.T) {
	e := NewEngine()
	bz := fig3()
	if _, err := e.TargetedMaxDisclosure(nil, 0, "flu", 1); err == nil {
		t.Error("nil bucketization accepted")
	}
	if _, err := e.TargetedMaxDisclosure(bz, -1, "flu", 1); err == nil {
		t.Error("negative bucket accepted")
	}
	if _, err := e.TargetedMaxDisclosure(bz, 9, "flu", 1); err == nil {
		t.Error("out-of-range bucket accepted")
	}
	if _, err := e.TargetedMaxDisclosure(bz, 0, "flu", -1); err == nil {
		t.Error("negative k accepted")
	}
	// Absent value: probability is identically zero.
	d, err := e.TargetedMaxDisclosure(bz, 0, "heart", 3)
	if err != nil || d != 0 {
		t.Errorf("absent value: %v, %v", d, err)
	}
}

// TestTargetedMatchesOracle validates the nested-chain DP (including its
// unproved nestedness assumption, see targeted.go) against the exact
// fixed-target oracle on randomized instances: every (bucket, value, k)
// triple must agree.
func TestTargetedMatchesOracle(t *testing.T) {
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
		in := asInstance(t, groups)
		for bi, b := range bz.Buckets {
			person := personName(groups, bi)
			for _, vc := range b.Freq() {
				dp, err := e.TargetedMaxDisclosure(bz, bi, vc.Value, k)
				if err != nil {
					return false
				}
				res, err := in.MaxDisclosureTargeted(
					atomFor(person, vc.Value), k, worlds.BruteOptions{})
				if err != nil {
					return false
				}
				checked++
				if math.Abs(dp-ratFloat(res.Prob)) > eps {
					t.Logf("groups=%v bucket=%d value=%s k=%d dp=%v oracle=%s",
						groups, bi, vc.Value, k, dp, res.Prob.RatString())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("only %d effective comparisons", checked)
	}
}

// TestProfileMaxEqualsMaxDisclosure cross-validates the two DPs: the
// maximum of the per-target risks must equal the global maximum
// disclosure.
func TestProfileMaxEqualsMaxDisclosure(t *testing.T) {
	e := NewEngine()
	f := func(raw []byte, kRaw uint8) bool {
		groups := groupsFromRaw(raw)
		if groups == nil {
			return true
		}
		k := int(kRaw) % 5
		bz := bucket.FromValues(groups...)
		profile, err := e.RiskProfile(bz, k, 1)
		if err != nil {
			return false
		}
		best := 0.0
		for _, r := range profile {
			if r.Disclosure > best {
				best = r.Disclosure
			}
		}
		global, err := e.MaxDisclosure(bz, k)
		if err != nil {
			return false
		}
		if math.Abs(best-global) > eps {
			t.Logf("groups=%v k=%d profileMax=%v global=%v", groups, k, best, global)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestRiskProfileShape(t *testing.T) {
	e := NewEngine()
	bz := fig3()
	profile, err := e.RiskProfile(bz, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 distinct values in bucket 0, 4 in bucket 1.
	if len(profile) != 7 {
		t.Fatalf("profile has %d entries, want 7", len(profile))
	}
	seen := map[string]float64{}
	for _, r := range profile {
		if r.Disclosure < 0 || r.Disclosure > 1 {
			t.Errorf("risk out of range: %+v", r)
		}
		seen[itoa(r.BucketIdx)+"/"+r.Value] = r.Disclosure
	}
	if math.Abs(seen["0/mumps"]-1.0/3) > eps {
		t.Errorf("mumps risk = %v, want 1/3", seen["0/mumps"])
	}
	if _, err := e.RiskProfile(nil, 1, 1); err == nil {
		t.Error("nil bucketization accepted")
	}
}

func TestWeightedMaxDisclosure(t *testing.T) {
	e := NewEngine()
	bz := fig3()

	// Uniform weight 1 must coincide with the plain maximum.
	w1, err := e.WeightedMaxDisclosure(bz, 1, ConstWeight(1))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.MaxDisclosure(bz, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w1-plain) > eps {
		t.Errorf("ConstWeight(1) = %v, plain = %v", w1, plain)
	}

	// Flu considered harmless: the worst case shifts to lung (2/3 at k=1).
	wf := func(v string) float64 {
		if v == "flu" {
			return 0
		}
		return 1
	}
	got, err := e.WeightedMaxDisclosure(bz, 1, wf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.0/3) > eps {
		t.Errorf("flu-free weighted = %v, want 2/3 (lung)", got)
	}

	// Scaling all weights scales the result.
	half, err := e.WeightedMaxDisclosure(bz, 1, ConstWeight(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(half-plain/2) > eps {
		t.Errorf("half weight = %v, want %v", half, plain/2)
	}

	if _, err := e.WeightedMaxDisclosure(bz, 1, nil); err == nil {
		t.Error("nil weight accepted")
	}
	if _, err := e.WeightedMaxDisclosure(bz, 1, ConstWeight(2)); err == nil {
		t.Error("weight > 1 accepted")
	}
	if _, err := e.WeightedMaxDisclosure(nil, 1, ConstWeight(1)); err == nil {
		t.Error("nil bucketization accepted")
	}
}

// TestWeightedMatchesOracle validates cost-based disclosure end to end:
// max over targets of w(s) times the fixed-target oracle maximum.
func TestWeightedMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("exponential oracle")
	}
	e := NewEngine()
	weights := map[string]float64{"a": 1, "b": 0.5, "c": 0.25}
	wf := func(v string) float64 { return weights[v] }
	f := func(raw []byte, kRaw uint8) bool {
		groups := groupsFromRaw(raw)
		if groups == nil {
			return true
		}
		k := int(kRaw) % 2
		bz := bucket.FromValues(groups...)
		dp, err := e.WeightedMaxDisclosure(bz, k, wf)
		if err != nil {
			return false
		}
		in := asInstance(t, groups)
		best := 0.0
		for bi, b := range bz.Buckets {
			person := personName(groups, bi)
			for _, vc := range b.Freq() {
				res, err := in.MaxDisclosureTargeted(atomFor(person, vc.Value), k, worlds.BruteOptions{})
				if err != nil {
					return false
				}
				if d := weights[vc.Value] * ratFloat(res.Prob); d > best {
					best = d
				}
			}
		}
		if math.Abs(dp-best) > eps {
			t.Logf("groups=%v k=%d dp=%v oracle=%v", groups, k, dp, best)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTargetedMonotoneInK checks that fixed-target disclosure is
// non-decreasing in the knowledge bound.
func TestTargetedMonotoneInK(t *testing.T) {
	e := NewEngine()
	f := func(raw []byte) bool {
		groups := groupsFromRaw(raw)
		if groups == nil {
			return true
		}
		bz := bucket.FromValues(groups...)
		for bi, b := range bz.Buckets {
			prev := -1.0
			for k := 0; k <= 4; k++ {
				d, err := e.TargetedMaxDisclosure(bz, bi, b.TopValue(), k)
				if err != nil {
					return false
				}
				if d < prev-eps {
					return false
				}
				prev = d
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// personName returns the decimal id of the first person in bucket bi for
// groups laid out like bucket.FromValues.
func personName(groups [][]string, bi int) string {
	id := 0
	for i := 0; i < bi; i++ {
		id += len(groups[i])
	}
	return itoa(id)
}

func atomFor(person, value string) logic.Atom {
	return logic.Atom{Person: person, Value: value}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := []byte{}
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

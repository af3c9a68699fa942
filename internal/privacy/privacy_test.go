package privacy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
)

func fig3() *bucket.Bucketization {
	return bucket.FromValues(
		[]string{"flu", "flu", "lung", "lung", "mumps"},
		[]string{"flu", "flu", "breast", "ovarian", "heart"},
	)
}

func TestKAnonymity(t *testing.T) {
	bz := fig3()
	cases := []struct {
		k    int
		want bool
	}{{1, true}, {5, true}, {6, false}}
	for _, c := range cases {
		got, err := KAnonymity{K: c.k}.Satisfied(bz)
		if err != nil || got != c.want {
			t.Errorf("K=%d: %v, %v; want %v", c.k, got, err, c.want)
		}
	}
	if _, err := (KAnonymity{K: 0}).Satisfied(bz); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := (KAnonymity{K: 2}).Satisfied(&bucket.Bucketization{}); err == nil {
		t.Error("empty bucketization accepted")
	}
	if !strings.Contains((KAnonymity{K: 5}).Name(), "5") {
		t.Error("Name missing parameter")
	}
}

func TestDistinctLDiversity(t *testing.T) {
	bz := fig3() // min distinct = 3 (male bucket)
	cases := []struct {
		l    int
		want bool
	}{{1, true}, {3, true}, {4, false}}
	for _, c := range cases {
		got, err := DistinctLDiversity{L: c.l}.Satisfied(bz)
		if err != nil || got != c.want {
			t.Errorf("L=%d: %v, %v; want %v", c.l, got, err, c.want)
		}
	}
	if _, err := (DistinctLDiversity{L: 0}).Satisfied(bz); err == nil {
		t.Error("L=0 accepted")
	}
	if _, err := (DistinctLDiversity{L: 1}).Satisfied(&bucket.Bucketization{}); err == nil {
		t.Error("empty bucketization accepted")
	}
}

func TestEntropyLDiversity(t *testing.T) {
	uniform := bucket.FromValues([]string{"a", "b", "c", "d"})
	got, err := EntropyLDiversity{L: 4}.Satisfied(uniform)
	if err != nil || !got {
		t.Errorf("uniform 4 values should be entropy 4-diverse: %v, %v", got, err)
	}
	got, err = EntropyLDiversity{L: 5}.Satisfied(uniform)
	if err != nil || got {
		t.Errorf("uniform 4 values is not entropy 5-diverse: %v, %v", got, err)
	}
	skewed := bucket.FromValues([]string{"a", "a", "a", "b"})
	got, err = EntropyLDiversity{L: 2}.Satisfied(skewed)
	if err != nil || got {
		t.Errorf("skewed bucket (entropy < ln 2): %v, %v", got, err)
	}
	if _, err := (EntropyLDiversity{L: 0}).Satisfied(uniform); err == nil {
		t.Error("L=0 accepted")
	}
	if _, err := (EntropyLDiversity{L: 2}).Satisfied(&bucket.Bucketization{}); err == nil {
		t.Error("empty bucketization accepted")
	}
}

func TestRecursiveCLDiversity(t *testing.T) {
	// Bucket {a:3, b:2, c:1}: recursive (c,2)-diversity requires
	// 3 < C·(2+1); true for C=2 (3<6), false for C=1 (3<3 fails).
	bz := bucket.FromValues([]string{"a", "a", "a", "b", "b", "c"})
	got, err := RecursiveCLDiversity{C: 2, L: 2}.Satisfied(bz)
	if err != nil || !got {
		t.Errorf("(2,2): %v, %v; want true", got, err)
	}
	got, err = RecursiveCLDiversity{C: 1, L: 2}.Satisfied(bz)
	if err != nil || got {
		t.Errorf("(1,2): %v, %v; want false", got, err)
	}
	// (c,3): 3 < C·1.
	got, err = RecursiveCLDiversity{C: 4, L: 3}.Satisfied(bz)
	if err != nil || !got {
		t.Errorf("(4,3): %v, %v; want true", got, err)
	}
	if _, err := (RecursiveCLDiversity{C: 1, L: 1}).Satisfied(bz); err == nil {
		t.Error("L=1 accepted")
	}
	// A bucket with a homogeneous tail makes every finite C fail, so NaN
	// and +Inf must be rejected, not read as "diverse".
	homogeneous := bucket.FromValues([]string{"a", "a"}, []string{"b", "c"})
	for _, c := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := (RecursiveCLDiversity{C: c, L: 2}).Satisfied(homogeneous); err == nil {
			t.Errorf("C=%v accepted", c)
		}
	}
	if _, err := (RecursiveCLDiversity{C: 0, L: 2}).Satisfied(bz); err == nil {
		t.Error("C=0 accepted")
	}
	if _, err := (RecursiveCLDiversity{C: 1, L: 2}).Satisfied(&bucket.Bucketization{}); err == nil {
		t.Error("empty bucketization accepted")
	}
	withEmpty := bucket.FromValues([]string{"a", "b", "c", "d"}, []string{})
	if _, err := (RecursiveCLDiversity{C: 2, L: 2}).Satisfied(withEmpty); err == nil || !strings.Contains(err.Error(), "bucket 1 is empty") {
		t.Errorf("bucketization with an empty bucket: err = %v, want one naming bucket 1", err)
	}
}

func TestCKSafety(t *testing.T) {
	bz := fig3() // max disclosure at k=1 is 2/3
	shared := core.NewEngine()
	got, err := CKSafety{C: 0.7, K: 1, Engine: shared}.Satisfied(bz)
	if err != nil || !got {
		t.Errorf("(0.7,1): %v, %v; want true", got, err)
	}
	got, err = CKSafety{C: 0.5, K: 1}.Satisfied(bz) // nil engine path
	if err != nil || got {
		t.Errorf("(0.5,1): %v, %v; want false", got, err)
	}
	if name := (CKSafety{C: 0.7, K: 1}).Name(); !strings.Contains(name, "0.7") || !strings.Contains(name, "1") {
		t.Errorf("Name = %q", name)
	}
	if _, err := (CKSafety{C: 2, K: 1}).Satisfied(bz); err == nil {
		t.Error("C=2 accepted")
	}
}

func TestNegationCKSafety(t *testing.T) {
	bz := fig3() // negation max at k=1 is 2/3
	got, err := NegationCKSafety{C: 0.7, K: 1}.Satisfied(bz)
	if err != nil || !got {
		t.Errorf("(0.7,1): %v, %v; want true", got, err)
	}
	got, err = NegationCKSafety{C: 0.6, K: 1}.Satisfied(bz)
	if err != nil || got {
		t.Errorf("(0.6,1): %v, %v; want false", got, err)
	}
	if _, err := (NegationCKSafety{C: -1, K: 1}).Satisfied(bz); err == nil {
		t.Error("C=-1 accepted")
	}
	if _, err := (NegationCKSafety{C: math.NaN(), K: 1}).Satisfied(bz); err == nil {
		t.Error("C=NaN accepted")
	}
}

// TestCKImpliesNegationSafety: (c,k)-safety defends against a richer
// language, so it implies negation (c,k)-safety (paper §6: ℓ-diversity-type
// guarantees are weaker).
func TestCKImpliesNegationSafety(t *testing.T) {
	e := core.NewEngine()
	f := func(raw []uint8, kRaw, cRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		var g1, g2 []string
		for i, r := range raw {
			v := string(rune('a' + r%4))
			if i%2 == 0 {
				g1 = append(g1, v)
			} else {
				g2 = append(g2, v)
			}
		}
		if len(g1) == 0 || len(g2) == 0 {
			return true
		}
		bz := bucket.FromValues(g1, g2)
		k := int(kRaw) % 4
		c := float64(cRaw%10)/10 + 0.05
		implMax, err0 := core.MaxDisclosure(bz, k)
		negMax, err3 := core.NegationMaxDisclosure(bz, k)
		if err0 != nil || err3 != nil {
			return false
		}
		// Thresholds within float round-off of either maximum make the
		// strict comparison ill-conditioned (see IsCKSafe docs); skip.
		if math.Abs(implMax-c) < 1e-9 || math.Abs(negMax-c) < 1e-9 {
			return true
		}
		ck, err1 := CKSafety{C: c, K: k, Engine: e}.Satisfied(bz)
		neg, err2 := NegationCKSafety{C: c, K: k}.Satisfied(bz)
		if err1 != nil || err2 != nil {
			return false
		}
		return !ck || neg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAllCriteriaMonotone property-checks the merge-monotonicity every
// lattice search depends on, across all criteria.
func TestAllCriteriaMonotone(t *testing.T) {
	e := core.NewEngine()
	criteria := []Criterion{
		KAnonymity{K: 2},
		DistinctLDiversity{L: 2},
		EntropyLDiversity{L: 2},
		RecursiveCLDiversity{C: 1.5, L: 2},
		CKSafety{C: 0.8, K: 1, Engine: e},
		CKSafety{C: 0.6, K: 2, Engine: e},
		NegationCKSafety{C: 0.8, K: 1},
	}
	f := func(raw []uint8) bool {
		if len(raw) < 3 {
			return true
		}
		var g1, g2, g3 []string
		for i, r := range raw {
			v := string(rune('a' + r%3))
			switch i % 3 {
			case 0:
				g1 = append(g1, v)
			case 1:
				g2 = append(g2, v)
			default:
				g3 = append(g3, v)
			}
		}
		if len(g1) == 0 || len(g2) == 0 || len(g3) == 0 {
			return true
		}
		bz := bucket.FromValues(g1, g2, g3)
		merged, err := bz.Merge(0, 1)
		if err != nil {
			return false
		}
		for _, crit := range criteria {
			fine, err1 := crit.Satisfied(bz)
			coarse, err2 := crit.Satisfied(merged)
			if err1 != nil || err2 != nil {
				return false
			}
			if fine && !coarse {
				t.Logf("%s broken by merge: %v + %v", crit.Name(), g1, g2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

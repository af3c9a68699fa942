package worlds

import (
	"math"
	"testing"

	"ckprivacy/internal/logic"
)

func TestEstimateCondProbAgainstExact(t *testing.T) {
	in := figure3(t)
	cases := []struct {
		target logic.Atom
		phi    string
	}{
		{logic.Atom{Person: "Ed", Value: "lung"}, ""},
		{logic.Atom{Person: "Ed", Value: "lung"}, "t[Ed]=mumps -> t[Ed]=flu"},
		{logic.Atom{Person: "Charlie", Value: "flu"}, "t[Hannah]=flu -> t[Charlie]=flu"},
		{logic.Atom{Person: "Karen", Value: "heart"}, "t[Gloria]=flu -> t[Karen]=heart"},
	}
	for i, c := range cases {
		phi, err := logic.ParseConjunction(c.phi)
		if err != nil {
			t.Fatal(err)
		}
		exactRat, err := in.CondProb(c.target, phi)
		if err != nil {
			t.Fatal(err)
		}
		exact, _ := exactRat.Float64()
		est, err := in.EstimateCondProb(c.target, phi, 60000, 1, int64(7+i))
		if err != nil {
			t.Fatalf("%v | %q: %v", c.target, c.phi, err)
		}
		// 5 standard errors plus slack; deterministic seeds keep this
		// stable.
		tol := 5*est.StdErr + 0.01
		if math.Abs(est.Prob-exact) > tol {
			t.Errorf("%v | %q: estimate %.4f±%.4f vs exact %.4f",
				c.target, c.phi, est.Prob, est.StdErr, exact)
		}
		if est.Accepted == 0 || est.Accepted > est.Samples {
			t.Errorf("bad acceptance counts: %+v", est)
		}
	}
}

func TestEstimateCondProbErrors(t *testing.T) {
	in := figure3(t)
	target := logic.Atom{Person: "Ed", Value: "lung"}
	if _, err := in.EstimateCondProb(target, nil, 0, 1, 1); err == nil {
		t.Error("zero samples accepted")
	}
	// Inconsistent knowledge: Ed avoids everything in his bucket.
	var phi logic.Conjunction
	for _, v := range []string{"flu", "lung", "mumps"} {
		other := "flu"
		if v == "flu" {
			other = "lung"
		}
		n, err := logic.Negation("Ed", v, other)
		if err != nil {
			t.Fatal(err)
		}
		phi = append(phi, n)
	}
	if _, err := in.EstimateCondProb(target, phi, 500, 1, 1); err == nil {
		t.Error("inconsistent knowledge accepted")
	}
}

// TestEstimateLargeInstance exercises the sampler where exact enumeration
// is hopeless: 60 tuples across 3 buckets (≈10⁴⁸ worlds). The unconditional
// marginal must match n_b(s)/n_b.
func TestEstimateLargeInstance(t *testing.T) {
	mk := func(n int, prefix string, vals ...string) Bucket {
		b := Bucket{}
		for i := 0; i < n; i++ {
			b.Persons = append(b.Persons, prefix+itoa(i))
			b.Values = append(b.Values, vals[i%len(vals)])
		}
		return b
	}
	in, err := New(
		mk(20, "a", "flu", "flu", "cancer", "mumps"),
		mk(20, "b", "flu", "cancer"),
		mk(20, "c", "mumps", "cancer", "cancer", "cancer"),
	)
	if err != nil {
		t.Fatal(err)
	}
	est, err := in.EstimateCondProb(logic.Atom{Person: "a0", Value: "flu"}, nil, 40000, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Prob-0.5) > 0.02 { // bucket a: 10 of 20 are flu
		t.Errorf("marginal estimate %.4f, want ~0.5", est.Prob)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

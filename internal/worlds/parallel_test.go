package worlds

import (
	"math"
	"math/rand"
	"testing"

	"ckprivacy/internal/logic"
)

func TestEstimateCondProbParallelAgainstExact(t *testing.T) {
	in := figure3(t)
	phi, err := logic.ParseConjunction("t[Hannah]=flu -> t[Charlie]=flu")
	if err != nil {
		t.Fatal(err)
	}
	target := logic.Atom{Person: "Charlie", Value: "flu"}
	exactRat, err := in.CondProb(target, phi)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := exactRat.Float64()
	for _, workers := range []int{1, 3, 0} {
		est, err := in.EstimateCondProb(target, phi, 60000, workers, 7)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if est.Samples != 60000 {
			t.Errorf("workers=%d: samples = %d", workers, est.Samples)
		}
		tol := 5*est.StdErr + 0.01
		if math.Abs(est.Prob-exact) > tol {
			t.Errorf("workers=%d: estimate %v vs exact %v (tol %v)", workers, est.Prob, exact, tol)
		}
	}
}

// TestEstimateCondProbParallelDeterministic asserts reproducibility for a
// fixed (seed, workers) pair, and that one worker draws exactly the stream
// of rand.NewSource(seed).
func TestEstimateCondProbParallelDeterministic(t *testing.T) {
	in := figure3(t)
	target := logic.Atom{Person: "Ed", Value: "lung"}
	a, err := in.EstimateCondProb(target, nil, 5000, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.EstimateCondProb(target, nil, 5000, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed+workers differ: %+v vs %+v", a, b)
	}
	phi, err := logic.ParseConjunction("t[Ed]=mumps -> t[Ed]=flu")
	if err != nil {
		t.Fatal(err)
	}
	one, err := in.EstimateCondProb(target, phi, 5000, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	accepted, hits := in.sample(target, phi, 5000, rand.New(rand.NewSource(42)))
	want, err := finishEstimate(accepted, hits, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if one != want {
		t.Errorf("one worker at seed 42 = %+v, want the rand.NewSource(42) stream's %+v", one, want)
	}
}

func TestEstimateCondProbParallelErrors(t *testing.T) {
	in := figure3(t)
	target := logic.Atom{Person: "Ed", Value: "lung"}
	if _, err := in.EstimateCondProb(target, nil, 0, 4, 1); err == nil {
		t.Error("zero samples accepted")
	}
	// Inconsistent knowledge: Ed both avoids and has flu — no world
	// satisfies it.
	phi, err := logic.ParseConjunction("t[Ed]=flu -> t[Ed]=mumps; t[Ed]=mumps -> t[Ed]=flu")
	if err != nil {
		t.Fatal(err)
	}
	bad := logic.Conjunction{}
	bad = append(bad, phi...)
	impossible, err := logic.ParseConjunction("t[Ed]=lung -> t[Ed]=flu")
	if err != nil {
		t.Fatal(err)
	}
	bad = append(bad, impossible...)
	if _, err := in.EstimateCondProb(target, bad, 2000, 4, 1); err == nil {
		t.Error("unsatisfiable-within-budget knowledge accepted")
	}
}

package lattice_test

import (
	"testing"
	"testing/quick"

	"ckprivacy/internal/lattice"
	"ckprivacy/internal/oracle"
)

func TestMinimalSatisfyingMatchesNaive(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		dims := []int{2 + int(raw[0])%3, 1 + int(raw[1])%3, 1 + int(raw[2])%2}
		s := lattice.MustSpace(dims...)
		all := s.All()
		var gens []lattice.Node
		for i := 3; i < len(raw) && i < 8; i++ {
			gens = append(gens, all[int(raw[i])%len(all)])
		}
		pred := lattice.GeneratorPred(gens)
		fast, _, err1 := lattice.MinimalSatisfyingBatch(s, pred, nil, 1)
		slow, err2 := oracle.NaiveMinimal(s, pred)
		if err1 != nil || err2 != nil {
			return false
		}
		return lattice.SameNodeSet(fast, slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIncognitoMatchesNaive(t *testing.T) {
	f := func(w0, w1, w2, lim uint8) bool {
		s := lattice.MustSpace(4, 3, 2)
		weights := []int{int(w0)%4 + 1, int(w1)%4 + 1, int(w2)%4 + 1}
		limit := int(lim) % 12
		check, pred := lattice.WeightedCheck(s, weights, limit)
		inc, _, err1 := lattice.IncognitoBatch(s, check, nil, 1)
		naive, err2 := oracle.NaiveMinimal(s, pred)
		if err1 != nil || err2 != nil {
			return false
		}
		return lattice.SameNodeSet(inc, naive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

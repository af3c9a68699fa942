package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"ckprivacy/internal/bucket"
)

// TestRiskProfileParallelMatchesSerial asserts the parallel profile is
// identical — same entries, same order — at any worker count, on random
// bucketizations.
func TestRiskProfileParallelMatchesSerial(t *testing.T) {
	e := NewEngine()
	f := func(raw []byte, kRaw, wRaw uint8) bool {
		groups := groupsFromRaw(raw)
		if groups == nil {
			return true
		}
		k := int(kRaw) % 5
		workers := int(wRaw)%8 + 1
		bz := bucket.FromValues(groups...)
		serial, err1 := e.RiskProfile(bz, k, 1)
		par, err2 := e.RiskProfile(bz, k, workers)
		if err1 != nil || err2 != nil {
			return false
		}
		return reflect.DeepEqual(serial, par)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRiskProfileParallelArguments(t *testing.T) {
	e := NewEngine()
	if _, err := e.RiskProfile(nil, 1, 4); err == nil {
		t.Error("nil bucketization accepted")
	}
	if _, err := e.RiskProfile(fig3(), -1, 4); err == nil {
		t.Error("negative k accepted")
	}
}

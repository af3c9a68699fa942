package ckprivacy_test

import (
	"reflect"
	"testing"

	"ckprivacy"
)

// TestPublicParallelAPI exercises the exported parallel surface end to end
// on a small table: worker-budgeted problems, the policy grid, and the
// parallel figure sweeps must agree with their serial counterparts.
func TestPublicParallelAPI(t *testing.T) {
	tab, err := ckprivacy.SyntheticAdult(ckprivacy.AdultConfig{N: 800, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	serial, err := ckprivacy.NewProblem(tab, ckprivacy.AdultHierarchies(), ckprivacy.AdultQI())
	if err != nil {
		t.Fatal(err)
	}
	o := ckprivacy.DefaultProblemOptions()
	o.Workers = 0
	par, err := ckprivacy.NewProblemWithOptions(tab, ckprivacy.AdultHierarchies(), ckprivacy.AdultQI(), o)
	if err != nil {
		t.Fatal(err)
	}
	if par.Workers() < 1 {
		t.Fatalf("Workers() = %d", par.Workers())
	}
	crit := ckprivacy.CKSafety{C: 0.9, K: 2, Engine: ckprivacy.NewEngine()}
	sN, sStats, err := serial.MinimalSafe(crit)
	if err != nil {
		t.Fatal(err)
	}
	pN, pStats, err := par.MinimalSafe(crit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sN, pN) || sStats != pStats {
		t.Errorf("parallel MinimalSafe diverged: %v/%+v vs %v/%+v", pN, pStats, sN, sStats)
	}
	if pStats.Evaluated > sStats.Evaluated {
		t.Errorf("parallel evaluated %d > serial %d", pStats.Evaluated, sStats.Evaluated)
	}

	grid, err := ckprivacy.RunSafetyGrid(tab, ckprivacy.GridConfig{
		Cs: []float64{0.8}, Ks: []int{1, 2}, Workers: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 1 || len(grid.Cells[0]) != 2 {
		t.Fatalf("grid shape %dx%d", len(grid.Cells), len(grid.Cells[0]))
	}

	f5s, err := ckprivacy.RunFig5Config(tab, ckprivacy.Fig5Config{MaxK: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f5p, err := ckprivacy.RunFig5Config(tab, ckprivacy.Fig5Config{MaxK: 4, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f5s, f5p) {
		t.Error("parallel Fig5 diverged from serial")
	}
}

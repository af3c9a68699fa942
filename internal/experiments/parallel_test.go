package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestFig6ParallelMatchesSerial asserts the sweep's promise: identical
// points — values, order, everything — at every worker count.
func TestFig6ParallelMatchesSerial(t *testing.T) {
	tab := smallAdult(t)
	ks := []int{1, 5}
	serial, err := RunFig6Config(tab, Fig6Config{Ks: ks, Negation: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		par, err := RunFig6Config(tab, Fig6Config{Ks: ks, Negation: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: parallel Fig6 differs from serial", workers)
		}
	}
}

func TestFig5ParallelMatchesSerial(t *testing.T) {
	tab := smallAdult(t)
	serial, err := RunFig5Config(tab, Fig5Config{MaxK: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFig5Config(tab, Fig5Config{MaxK: 6, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("parallel Fig5 differs from serial")
	}
}

func TestSafetyGrid(t *testing.T) {
	tab := smallAdult(t)
	cfg := GridConfig{Cs: []float64{0.6, 0.9}, Ks: []int{1, 3}, Workers: 0}
	res, err := RunSafetyGrid(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || len(res.Cells[0]) != 2 {
		t.Fatalf("grid shape = %dx%d", len(res.Cells), len(res.Cells[0]))
	}
	serial, err := RunSafetyGrid(tab, GridConfig{Cs: cfg.Cs, Ks: cfg.Ks, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, res) {
		t.Error("parallel grid differs from serial")
	}
	// Monotonicity across the grid: a laxer threshold (larger c) at the
	// same k can only need an equal-or-lower safe node; a larger k at the
	// same c only an equal-or-higher one.
	for j := range cfg.Ks {
		lax, strict := res.Cells[1][j], res.Cells[0][j]
		if strict.Exists && (!lax.Exists || lax.Height > strict.Height) {
			t.Errorf("k=%d: c=0.9 cell %+v worse than c=0.6 cell %+v", cfg.Ks[j], lax, strict)
		}
	}
	for i := range cfg.Cs {
		small, big := res.Cells[i][0], res.Cells[i][1]
		if big.Exists && small.Exists && small.Height > big.Height {
			t.Errorf("c=%v: k=1 height %d exceeds k=3 height %d", cfg.Cs[i], small.Height, big.Height)
		}
	}
}

func TestSafetyGridValidationAndRender(t *testing.T) {
	tab := smallAdult(t)
	if _, err := RunSafetyGrid(tab, GridConfig{Cs: []float64{1.5}}); err == nil {
		t.Error("c > 1 accepted")
	}
	if _, err := RunSafetyGrid(tab, GridConfig{Cs: []float64{math.NaN()}, Ks: []int{1}}); err == nil {
		t.Error("c = NaN accepted")
	}
	if _, err := RunSafetyGrid(tab, GridConfig{Ks: []int{-1}}); err == nil {
		t.Error("negative k accepted")
	}
	res, err := RunSafetyGrid(tab, GridConfig{Cs: []float64{0.9}, Ks: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "k=1") {
		t.Errorf("render missing header: %q", buf.String())
	}
	buf.Reset()
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "c,k,exists,height,buckets,node") {
		t.Errorf("csv header wrong: %q", buf.String())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Errorf("csv has %d lines, want 2", lines)
	}
}

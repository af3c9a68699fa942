package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchDefinition is the part of BENCHMARK.json the smoke test checks
// against.
type benchDefinition struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDefinition(t *testing.T) benchDefinition {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchDefinition
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tinyScale keeps the smoke test to a few seconds.
var tinyScale = scale{adultRows: 400, sweepRows: 20_000, serveRows: 2_000, serveSetups: 1}

// TestWorkloadsTiny runs every workload at the tiny scale once untraced
// (seed 1) and once traced (seed 2): the correctness gate must pass, every
// metric BENCHMARK.json names must be reported with its unit, and on the
// offline workloads the layer self times plus trace.unattributed_s must
// add up to the traced wall time.
func TestWorkloadsTiny(t *testing.T) {
	def := readDefinition(t)
	for _, w := range workloads {
		for _, run := range []struct {
			seed  int64
			trace bool
		}{{1, false}, {2, true}} {
			res, err := runWorkload(w, tinyScale, run.seed, 0.02, run.trace)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s seed %d: correct %v, %d of %d failed: %v", w, run.seed, res.Correct, res.Failed, res.Attempted, res.Mismatches)
			}
			want := def.EndToEnd
			if run.trace {
				want = def.PerLayer
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (reported %v), want unit %s", w, run.trace, m.Name, got, ok, m.Unit)
				}
			}
			line, err := res.summaryLine()
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(line) || strings.Contains(string(line), "\n") {
				t.Errorf("%s: summary line is not one JSON object: %s", w, line)
			}
			if run.trace && !strings.HasPrefix(w, "serve") {
				sum := 0.0
				for _, name := range selfMetric {
					sum += res.Metrics[name].Value
				}
				sum += res.Metrics["trace.unattributed_s"].Value
				wall := res.Metrics["trace.wall_s"].Value
				if math.Abs(sum-wall) > 1e-9*wall {
					t.Errorf("%s: layer self times + unattributed = %v s, traced wall %v s", w, sum, wall)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	wins := func(head []float64) int {
		n := 0
		for i := range head {
			if head[i] < base[i] {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		head []float64
		want string
	}{
		{scaled(0.8), "improved"},
		{scaled(1.2), "regressed"},
		{scaled(1.01), "no-regression"},
	} {
		if got := judge(base, tc.head, wins(tc.head), len(base), true, 0.05); got != tc.want {
			t.Errorf("median ×%v: %s, want %s", tc.head[0]/base[0], got, tc.want)
		}
	}
	noisy := []float64{50, 150, 100, 60, 140, 100, 70, 130, 100, 100}
	if got := judge(noisy, noisy, 0, len(noisy), true, 0.05); got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}
}

func TestCheckInterleaved(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// runs makes one result per seed, started at the given minutes.
	runs := func(seeds []int64, minutes ...int) []*Result {
		var out []*Result
		for i, s := range seeds {
			out = append(out, &Result{Seed: s, Stamp: Stamp{Start: t0.Add(time.Duration(minutes[i]) * time.Minute)}})
		}
		return out
	}
	seeds := []int64{1, 2, 3}
	for _, tc := range []struct {
		name      string
		base, new []*Result
		ok        bool
	}{
		{"alternating, base first", runs(seeds, 0, 2, 4), runs(seeds, 1, 3, 5), true},
		{"either side first per pair", runs(seeds, 0, 3, 4), runs(seeds, 1, 2, 5), true},
		{"one set after the other", runs(seeds, 0, 1, 2), runs(seeds, 3, 4, 5), false},
		{"pair of different seeds", runs([]int64{1, 2, 3}, 0, 2, 4), runs([]int64{2, 1, 3}, 1, 3, 5), false},
		{"unequal counts", runs(seeds, 0, 2, 4), runs(seeds[:2], 1, 3), false},
	} {
		if err := checkInterleaved("grid", tc.base, tc.new); (err == nil) != tc.ok {
			t.Errorf("%s: error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

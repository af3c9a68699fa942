package experiments

import (
	"math"
	"math/big"
	"slices"
	"strconv"
	"testing"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataset/adult"
	"ckprivacy/internal/parallel"
	"ckprivacy/internal/table"
)

// fullAdult is the paper-size Adult table (45,222 rows, seed 1), the
// CLI's and the benchmark's default.
func fullAdult(t *testing.T) *table.Table {
	t.Helper()
	tab, err := adult.Generate(adult.Config{Seed: 1, N: adult.DefaultN})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// ulps is the number of float64 steps between a and b, both >= 0.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// TestFig6MatchesExact certifies Figure 6 against exact arithmetic: on
// the paper-size Adult table, every float disclosure RunFig6Config
// reports for the 72 nodes at k = 1, 5 and 11 lies within 2 ulp of the
// float64 nearest to Engine.ExactMaxDisclosure's big.Rat.
func TestFig6MatchesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("exact arithmetic over all 72 nodes of the 45,222-row Adult table")
	}
	tab := fullAdult(t)
	ks := []int{1, 5, 11}
	res, err := RunFig6Config(tab, Fig6Config{Ks: ks})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 72 {
		t.Fatalf("%d points, want 72", len(res.Points))
	}
	p, err := anonymize.NewProblem(tab, adult.Hierarchies(), adult.QuasiIdentifiers())
	if err != nil {
		t.Fatal(err)
	}
	exact := core.NewEngine()
	worst := make([]uint64, len(res.Points)) // per point, so workers share no slot
	err = parallel.ForEach(0, len(res.Points), func(i int) error {
		pt := res.Points[i]
		bz, err := p.Bucketize(pt.Node)
		if err != nil {
			return err
		}
		for _, k := range ks {
			rat, err := exact.ExactMaxDisclosure(bz, k)
			if err != nil {
				return err
			}
			want, _ := rat.Float64()
			d := ulps(pt.Disclosure[k], want)
			if d > 2 {
				t.Errorf("node %v k=%d: float %v is %d ulp from the exact %v (nearest float64 %v)",
					pt.Node, k, pt.Disclosure[k], d, rat.RatString(), want)
			}
			worst[i] = max(worst[i], d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("216 values, at most %d ulp from exact", slices.Max(worst))
}

// decimal is the threshold c as the decimal a policy states, 4/5 for
// 0.8: the shortest decimal that rounds to c, read exactly. c's float64
// itself lies up to half an ulp from it (0.8's is about 4/5 + 4.4e-17),
// so a maximum of exactly 4/5 is unsafe at the policy's 0.8 though it
// lies below the float64.
func decimal(t *testing.T, c float64) *big.Rat {
	t.Helper()
	r, ok := new(big.Rat).SetString(strconv.FormatFloat(c, 'f', -1, 64))
	if !ok {
		t.Fatalf("threshold %v does not parse as a decimal", c)
	}
	return r
}

// TestGridDecisionsMatchExact certifies the default (c,k) grid on the
// paper-size Adult table: for each cell, the float decisions at the two
// chain nodes around its reported height (the lowest safe node and the
// unsafe node below it; the unsafe top node when none is safe) are those
// the cell reports, and wherever such a node's float maximum lies within
// 4 ulp of c, where a 2-ulp float error could flip the strict comparison,
// IsCKSafeExact at the decimal threshold must decide it the same way.
// Elsewhere the float decision is already exact, TestFig6MatchesExact's
// 2-ulp bound keeping the exact maximum on the same side of c.
func TestGridDecisionsMatchExact(t *testing.T) {
	if testing.Short() {
		t.Skip("grid chain searches on the 45,222-row Adult table")
	}
	tab := fullAdult(t)
	res, err := RunSafetyGrid(tab, GridConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := anonymize.NewProblem(tab, adult.Hierarchies(), adult.QuasiIdentifiers())
	if err != nil {
		t.Fatal(err)
	}
	chain := p.Space().Chain()
	e := core.NewEngine()
	cells, near := 0, 0
	for _, row := range res.Cells {
		for _, cell := range row {
			cells++
			probes := []int{len(chain) - 1}
			if cell.Exists {
				if cell.Node.Key() != chain[cell.Height].Key() {
					t.Fatalf("(c=%v, k=%d): node %v is not chain node %d", cell.C, cell.K, cell.Node, cell.Height)
				}
				probes = []int{cell.Height}
				if cell.Height > 0 {
					probes = append(probes, cell.Height-1)
				}
			}
			cellNear := false
			for _, h := range probes {
				bz, err := p.Bucketize(chain[h])
				if err != nil {
					t.Fatal(err)
				}
				d, err := e.MaxDisclosure(bz, cell.K)
				if err != nil {
					t.Fatal(err)
				}
				safe := d < cell.C
				if want := cell.Exists && h == cell.Height; safe != want {
					t.Errorf("(c=%v, k=%d) chain node %d: disclosure %v, safe %v; the cell reports height %d (exists %v)",
						cell.C, cell.K, h, d, safe, cell.Height, cell.Exists)
				}
				if ulps(d, cell.C) > 4 {
					continue
				}
				cellNear = true
				exactSafe, err := e.IsCKSafeExact(bz, decimal(t, cell.C), cell.K)
				if err != nil {
					t.Fatal(err)
				}
				if exactSafe != safe {
					t.Errorf("(c=%v, k=%d) chain node %d: float disclosure %v decides safe=%v, exact arithmetic %v",
						cell.C, cell.K, h, d, safe, exactSafe)
				}
			}
			if cellNear {
				near++
			}
		}
	}
	t.Logf("%d of %d cells had a probed node within 4 ulp of c and were decided exactly", near, cells)
}

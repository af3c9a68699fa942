package ckprivacy_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ckprivacy"
)

// ---------------------------------------------------------------------------
// Per-figure benchmarks: each regenerates one artifact of the paper's
// evaluation (§4). Run with:  go test -bench=. -benchmem
// Figure 6 and the (c,k) policy grid are ckbench workloads (fig6, grid;
// see bench/README.md), graded end to end there.
// ---------------------------------------------------------------------------

// BenchmarkFigure5 regenerates Figure 5 (max disclosure vs k, implications
// and negated atoms) on the full-size synthetic Adult table: 45,222 tuples,
// Age generalized to width-20 intervals, all other QI suppressed, k = 0..12.
func BenchmarkFigure5(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ckprivacy.RunFig5(tab, 12)
		if err != nil {
			b.Fatal(err)
		}
		sinkF = res.Implication[12]
	}
}

// BenchmarkSafeSearchWorkers ablates the level-wise parallel lattice
// searches on the §3.4 workload (4,000-tuple Adult, (0.8,3)-safety).
func BenchmarkSafeSearchWorkers(b *testing.B) {
	tab := mustAdult(b, 4000)
	for _, method := range []string{"naive", "incognito"} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", method, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					o := ckprivacy.DefaultProblemOptions()
					o.Workers = workers
					p, err := ckprivacy.NewProblemWithOptions(tab, ckprivacy.AdultHierarchies(), ckprivacy.AdultQI(), o)
					if err != nil {
						b.Fatal(err)
					}
					crit := ckprivacy.CKSafety{C: 0.8, K: 3, Engine: ckprivacy.NewEngine()}
					if method == "naive" {
						_, _, err = p.MinimalSafe(crit)
					} else {
						_, _, err = p.MinimalSafeIncognito(crit)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRiskProfileWorkers ablates the per-target sweep's worker budget
// on a many-buckets bucketization.
func BenchmarkRiskProfileWorkers(b *testing.B) {
	bz := syntheticBuckets(1000, 8, 14, 13)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			engine := ckprivacy.NewEngine()
			for i := 0; i < b.N; i++ {
				profile, err := engine.RiskProfile(bz, 5, workers)
				if err != nil {
					b.Fatal(err)
				}
				sinkI = len(profile)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Scaling benchmarks for the core O(|B|·k³) algorithm.
// ---------------------------------------------------------------------------

// BenchmarkMaxDisclosureK scales the knowledge bound k on a fixed
// bucketization (the Figure 5 table: 5 buckets over 45,222 tuples). The
// engine is fresh per iteration, so the cost includes all MINIMIZE1 tables.
func BenchmarkMaxDisclosureK(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	bz, err := ckprivacy.Bucketize(tab, ckprivacy.AdultHierarchies(), fig5Levels())
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 4, 8, 13} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := ckprivacy.NewEngine().MaxDisclosure(bz, k)
				if err != nil {
					b.Fatal(err)
				}
				sinkF = d
			}
		})
	}
}

// BenchmarkMaxDisclosureBuckets scales the bucket count |B| at fixed k=5,
// using deterministic synthetic buckets of size 8 over 14 values.
func BenchmarkMaxDisclosureBuckets(b *testing.B) {
	for _, nb := range []int{100, 1000, 10000} {
		bz := syntheticBuckets(nb, 8, 14, 7)
		b.Run(fmt.Sprintf("B=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := ckprivacy.NewEngine().MaxDisclosure(bz, 5)
				if err != nil {
					b.Fatal(err)
				}
				sinkF = d
			}
		})
	}
}

// BenchmarkWitness measures worst-case witness reconstruction on the
// Figure 5 bucketization.
func BenchmarkWitness(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	bz, err := ckprivacy.Bucketize(tab, ckprivacy.AdultHierarchies(), fig5Levels())
	if err != nil {
		b.Fatal(err)
	}
	engine := ckprivacy.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := engine.Witness(bz, 8, ckprivacy.DisclosureOptions{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkF = w.Disclosure
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for design choices.
// ---------------------------------------------------------------------------

// BenchmarkEngineCache ablates the histogram-keyed MINIMIZE1 memo (the
// paper's incremental-recomputation remark): "cold" uses a fresh engine per
// node of a 20-node sweep; "warm" shares one engine across the sweep, as
// Figure 6 does.
func BenchmarkEngineCache(b *testing.B) {
	var sweep []*ckprivacy.Bucketization
	for i := 0; i < 20; i++ {
		sweep = append(sweep, syntheticBuckets(200, 8, 14, int64(3))) // identical histograms across nodes
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, bz := range sweep {
				e := ckprivacy.NewEngine()
				if _, err := e.MaxDisclosure(bz, 11); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := ckprivacy.NewEngine()
			for _, bz := range sweep {
				if _, err := e.MaxDisclosure(bz, 11); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSafeSearch ablates the three strategies for finding (c,k)-safe
// generalizations on a 4,000-tuple Adult table (the §3.4 workload).
func BenchmarkSafeSearch(b *testing.B) {
	tab := mustAdult(b, 4000)
	run := func(b *testing.B, method string) {
		for i := 0; i < b.N; i++ {
			p, err := ckprivacy.NewProblem(tab, ckprivacy.AdultHierarchies(), ckprivacy.AdultQI())
			if err != nil {
				b.Fatal(err)
			}
			crit := ckprivacy.CKSafety{C: 0.8, K: 3, Engine: ckprivacy.NewEngine()}
			switch method {
			case "naive":
				_, _, err = p.MinimalSafe(crit)
			case "incognito":
				_, _, err = p.MinimalSafeIncognito(crit)
			case "chain":
				_, _, _, err = p.ChainSearch(crit)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("naive", func(b *testing.B) { run(b, "naive") })
	b.Run("incognito", func(b *testing.B) { run(b, "incognito") })
	b.Run("chain", func(b *testing.B) { run(b, "chain") })
}

// BenchmarkOracleVsDP contrasts the #P-hard exact computation (Theorem 8)
// with the polynomial worst-case DP (Theorem 9 + §3.3) on the paper's
// Figure 3 example, k=1.
func BenchmarkOracleVsDP(b *testing.B) {
	groups := [][]string{
		{"flu", "flu", "lung", "lung", "mumps"},
		{"flu", "flu", "breast", "ovarian", "heart"},
	}
	b.Run("dp", func(b *testing.B) {
		bz := ckprivacy.FromValues(groups...)
		for i := 0; i < b.N; i++ {
			d, err := ckprivacy.NewEngine().MaxDisclosure(bz, 1)
			if err != nil {
				b.Fatal(err)
			}
			sinkF = d
		}
	})
	b.Run("oracle", func(b *testing.B) {
		in := mustInstance(b, groups)
		for i := 0; i < b.N; i++ {
			res, err := in.MaxDisclosureCommonConsequent(1, ckprivacy.BruteOptions{})
			if err != nil {
				b.Fatal(err)
			}
			sinkF, _ = res.Prob.Float64()
		}
	})
}

// BenchmarkRiskProfile measures the per-target extension on a
// many-buckets bucketization (1,000 buckets × up to 14 values).
func BenchmarkRiskProfile(b *testing.B) {
	bz := syntheticBuckets(1000, 8, 14, 13)
	engine := ckprivacy.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile, err := engine.RiskProfile(bz, 5, 1)
		if err != nil {
			b.Fatal(err)
		}
		sinkI = len(profile)
	}
}

// BenchmarkEstimate measures Monte-Carlo evaluation of one concrete
// knowledge formula on the full-size Figure 5 bucketization.
func BenchmarkEstimate(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	bz, err := ckprivacy.Bucketize(tab, ckprivacy.AdultHierarchies(), fig5Levels())
	if err != nil {
		b.Fatal(err)
	}
	in, err := ckprivacy.WorldsFromBucketization(bz, nil)
	if err != nil {
		b.Fatal(err)
	}
	target, err := ckprivacy.ParseAtom("t[0]=Sales")
	if err != nil {
		b.Fatal(err)
	}
	phi, err := ckprivacy.ParseConjunction("t[1]=Sales -> t[0]=Sales")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := in.EstimateCondProb(target, phi, 50, 1, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		sinkF = est.Prob
	}
}

// BenchmarkSubstrate measures the substrates feeding the experiments.
func BenchmarkSubstrate(b *testing.B) {
	b.Run("generate-adult-45k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tab, err := ckprivacy.SyntheticAdult(ckprivacy.AdultConfig{N: ckprivacy.AdultDefaultN, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			sinkI = tab.Len()
		}
	})
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	b.Run("bucketize-45k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bz, err := ckprivacy.Bucketize(tab, ckprivacy.AdultHierarchies(), fig5Levels())
			if err != nil {
				b.Fatal(err)
			}
			sinkI = len(bz.Buckets)
		}
	})
	b.Run("negation-series", func(b *testing.B) {
		bz, err := ckprivacy.Bucketize(tab, ckprivacy.AdultHierarchies(), fig5Levels())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			d, err := ckprivacy.NegationMaxDisclosure(bz, 12)
			if err != nil {
				b.Fatal(err)
			}
			sinkF = d
		}
	})
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

var (
	sinkF float64
	sinkI int
)

func fig5Levels() ckprivacy.Levels {
	return ckprivacy.Levels{"Age": 3, "MaritalStatus": 2, "Race": 1, "Sex": 1}
}

var adultCache = map[int]*ckprivacy.Table{}

func mustAdult(b *testing.B, n int) *ckprivacy.Table {
	b.Helper()
	if t, ok := adultCache[n]; ok {
		return t
	}
	t, err := ckprivacy.SyntheticAdult(ckprivacy.AdultConfig{N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	adultCache[n] = t
	return t
}

// syntheticBuckets builds nb buckets of the given size drawing values from
// a skewed distribution over `values` distinct sensitive values.
func syntheticBuckets(nb, size, values int, seed int64) *ckprivacy.Bucketization {
	rng := rand.New(rand.NewSource(seed))
	groups := make([][]string, nb)
	for i := range groups {
		g := make([]string, size)
		for j := range g {
			// Zipf-ish skew: low indices more likely.
			v := int(float64(values) * rng.Float64() * rng.Float64())
			if v >= values {
				v = values - 1
			}
			g[j] = fmt.Sprintf("v%02d", v)
		}
		groups[i] = g
	}
	return ckprivacy.FromValues(groups...)
}

func mustInstance(b *testing.B, groups [][]string) ckprivacy.WorldsInstance {
	b.Helper()
	var bs []ckprivacy.WorldsBucket
	next := 0
	for _, g := range groups {
		wb := ckprivacy.WorldsBucket{}
		for _, v := range g {
			wb.Persons = append(wb.Persons, fmt.Sprint(next))
			wb.Values = append(wb.Values, v)
			next++
		}
		bs = append(bs, wb)
	}
	in, err := ckprivacy.NewWorldsInstance(bs...)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

package core_test

import (
	"fmt"
	"math"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/synth"
)

// synthNodes are the lattice nodes TestSeriesMatchesOracleOnSynth
// bucketizes: from one bucket holding the whole 2,000-row table to about
// 200 buckets, so the histograms run from every sensitive value with a
// long tail to short, head-heavy ones.
var synthNodes = []bucket.Levels{
	{"Age": 3, "Region": 2, "Education": 2},
	{"Age": 3, "Region": 2, "Education": 1},
	{"Age": 2, "Region": 2, "Education": 1},
	{"Age": 1, "Region": 2, "Education": 2},
	{"Age": 3, "Region": 1, "Education": 1},
	{"Age": 2, "Region": 1, "Education": 1},
	{"Age": 1, "Region": 1, "Education": 2},
}

// TestSeriesMatchesOracleOnSynth runs the kernel differential over synth's
// skew and sensitive-cardinality knobs, which bring in the long-tailed,
// many-valued histograms the small random pools of the other kernel tests
// never produce. Each 2,000-row table is bucketized by the string-path
// oracle; at every node the single-pass Series(bz, 11) must equal
// minimize2Oracle at each k bit for bit, and IsCKSafe must equal
// MaxDisclosure < c at the disclosure d and at both float neighbours of d.
func TestSeriesMatchesOracleOnSynth(t *testing.T) {
	const maxK = 11
	// synth reads Skew 0 as its default 1.07, so a negligible skew stands
	// in for the uniform distribution.
	for _, skew := range []float64{1e-9, 1.07, 3} {
		for _, occupations := range []int{2, 25, 60} {
			t.Run(fmt.Sprintf("skew=%g/occupations=%d", skew, occupations), func(t *testing.T) {
				t.Parallel()
				g, err := synth.New(synth.Config{Rows: 2000, Seed: 1, Skew: skew, Occupations: occupations})
				if err != nil {
					t.Fatal(err)
				}
				tab, err := g.Table()
				if err != nil {
					t.Fatal(err)
				}
				e := core.NewEngine()
				for _, levels := range synthNodes {
					bz, err := oracle.Bucketize(tab, synth.Hierarchies(g.Config()), levels)
					if err != nil {
						t.Fatal(err)
					}
					checkSeriesOnSynth(t, e, bz, maxK)
				}
			})
		}
	}
}

func checkSeriesOnSynth(t *testing.T, e *core.Engine, bz *bucket.Bucketization, maxK int) {
	t.Helper()
	series, err := e.Series(bz, maxK)
	if err != nil {
		t.Fatal(err)
	}
	for k, got := range series {
		if want := core.OracleMaxDisclosure(bz, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d buckets: Series(%d)[%d] = %v, oracle %v", len(bz.Buckets), maxK, k, got, want)
		}
		d, err := e.MaxDisclosure(bz, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(d) != math.Float64bits(got) {
			t.Fatalf("%d buckets k=%d: MaxDisclosure %v, Series %v", len(bz.Buckets), k, d, got)
		}
		for _, c := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, 1)} {
			if c > 1 {
				continue
			}
			safe, err := e.IsCKSafe(bz, c, k)
			if err != nil {
				t.Fatal(err)
			}
			if safe != (d < c) {
				t.Fatalf("%d buckets k=%d: IsCKSafe(c=%v) = %v, MaxDisclosure %v", len(bz.Buckets), k, c, safe, d)
			}
		}
	}
}

package anonymize_test

import (
	"fmt"
	"testing"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/synth"
	"ckprivacy/internal/table"
)

// This is an external test package because internal/synth imports
// anonymize (through dataload).

// TestPlannedSweepParityOnSynth runs planned sweeps over synth's skew and
// sensitive-cardinality knobs, so the parity suites meet skewed buckets
// and the sparse-histogram path, which their random tables (four
// sensitive values) never reach. One MaterializeNodes of all 36 nodes,
// then Problem.Append of 200 more rows from the same generator, must each
// leave every node equal to oracle.Bucketize. A second problem caches only
// the bottom node before the append, so its sweep derives every node from
// a patched source, which has no row index and is indexed from its
// tuples.
func TestPlannedSweepParityOnSynth(t *testing.T) {
	const rows, appended = 2000, 200
	for _, skew := range []float64{1e-9, 1.07, 3} {
		for _, occupations := range []int{2, 25, 300} {
			t.Run(fmt.Sprintf("skew=%g/occupations=%d", skew, occupations), func(t *testing.T) {
				t.Parallel()
				cfg := synth.Config{Rows: rows + appended, Seed: 1, Skew: skew, Occupations: occupations}
				full := sweepThenAppend(t, cfg, rows, true)
				// At 2,000 rows, 300 occupations leave 300 distinct values at
				// skew 1e-9 and 282 at 1.07, but only 28 at skew 3.
				distinct := full.Snapshot().Encoded().SensitiveDict().Len()
				if sparse := occupations == 300 && skew < 3; sparse != (distinct > bucket.MaxDenseSensitive) {
					t.Fatalf("%d distinct sensitive values against the dense threshold %d; the case should be sparse=%v",
						distinct, bucket.MaxDenseSensitive, sparse)
				}
				patched := sweepThenAppend(t, cfg, rows, false)
				if ss := patched.SweepStats(); ss.BaseScans != 1 || ss.Coarsened != uint64(patched.Space().Size()-1) {
					t.Fatalf("sweep over a patched bottom: %+v, want 1 base scan and %d coarsened", ss, patched.Space().Size()-1)
				}
			})
		}
	}
}

// sweepThenAppend builds a problem over the generator's first rows rows.
// With sweepFirst it materializes every node, checks them, appends the
// generator's remaining rows and checks the patched nodes; otherwise it
// caches only the bottom node, appends, and then materializes and checks
// every node.
func sweepThenAppend(t *testing.T, cfg synth.Config, rows int, sweepFirst bool) *anonymize.Problem {
	t.Helper()
	g, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := table.New(g.Schema())
	for _, r := range g.Next(rows) {
		tab.MustAppend(r)
	}
	hs := synth.Hierarchies(g.Config())
	o := anonymize.DefaultOptions()
	o.Workers = 2
	p, err := anonymize.NewProblemWithOptions(tab, hs, synth.QI(), o)
	if err != nil {
		t.Fatal(err)
	}
	if sweepFirst {
		materializeAndCheck(t, p, "sweep")
	} else if _, err := p.Bucketize(p.Space().Bottom()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append(g.Next(g.Remaining())); err != nil {
		t.Fatal(err)
	}
	materializeAndCheck(t, p, "after append")
	return p
}

// materializeAndCheck materializes every lattice node in one planned
// sweep and compares each node, read back from the cache, with
// oracle.Bucketize over the snapshot's rows.
func materializeAndCheck(t *testing.T, p *anonymize.Problem, label string) {
	t.Helper()
	snap := p.Snapshot()
	nodes := p.Space().All()
	if err := snap.MaterializeNodes(nodes); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	misses := p.CacheStats().Misses
	for _, n := range nodes {
		got, err := snap.Bucketize(n)
		if err != nil {
			t.Fatal(err)
		}
		levels := bucket.Levels{}
		for i, name := range p.QI {
			levels[name] = n[i]
		}
		want, err := oracle.Bucketize(snap.Table(), p.Hierarchies, levels)
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, want, got, fmt.Sprintf("%s node %v", label, n))
	}
	if p.CacheStats().Misses != misses {
		t.Fatalf("%s: reading the swept nodes missed the cache", label)
	}
}

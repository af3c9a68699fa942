package ckprivacy_test

import (
	"fmt"
	"testing"

	"ckprivacy"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/synth"
)

// ---------------------------------------------------------------------------
// Columnar-substrate benchmarks: the encoded bucketization scan, the
// one-time encode cost, and a node-by-node lattice sweep. All report a
// rows/s custom metric so the CI bench JSON artifact tracks throughput.
// The planned full sweep and the (c,k) grid are ckbench workloads
// (sweep-1m, grid; see bench/README.md).
// ---------------------------------------------------------------------------

// BenchmarkBucketizeEncoded is one scan of the full-size synthetic Adult
// table at the Figure 5 generalization over a pre-encoded view: one LUT
// index per row and dimension, integer group keys, code-space histograms.
func BenchmarkBucketizeEncoded(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	enc := tab.Encode()
	chs, err := bucket.CompileHierarchies(enc, ckprivacy.AdultHierarchies())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bz, err := bucket.FromGeneralizationEncoded(enc, chs, fig5Levels())
		if err != nil {
			b.Fatal(err)
		}
		sinkI = len(bz.Buckets)
	}
	reportRowsPerSec(b, float64(tab.Len()))
}

// BenchmarkBucketizeSynth is one scan of ACS-style synthetic tables of
// 100k and 1M rows at their default levels; README's scan-throughput
// table comes from it.
func BenchmarkBucketizeSynth(b *testing.B) {
	for _, rows := range []int{100_000, 1_000_000} {
		bundle, err := synth.Bundle(synth.Config{Rows: rows, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		enc := bundle.Table.Encode()
		chs, err := bucket.CompileHierarchies(enc, bundle.Hierarchies)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bz, err := bucket.FromGeneralizationEncoded(enc, chs, bundle.DefaultLevels)
				if err != nil {
					b.Fatal(err)
				}
				sinkI = len(bz.Buckets)
			}
			reportRowsPerSec(b, float64(rows))
		})
	}
}

// BenchmarkEncodeTable measures the one-time cost the encoded path
// amortizes: dictionary-encoding the table plus compiling the hierarchies,
// on the full-size synthetic Adult table and on the 1M-row synth table
// ckbench's sweep-1m workload encodes.
func BenchmarkEncodeTable(b *testing.B) {
	synth1m, err := synth.Bundle(synth.Config{Rows: 1_000_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tab  *ckprivacy.Table
		hs   ckprivacy.Hierarchies
	}{
		{"adult", mustAdult(b, ckprivacy.AdultDefaultN), ckprivacy.AdultHierarchies()},
		{"synth-1m", synth1m.Table, synth1m.Hierarchies},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				enc := tc.tab.Encode()
				chs, err := bucket.CompileHierarchies(enc, tc.hs)
				if err != nil {
					b.Fatal(err)
				}
				sinkI = len(chs)
			}
			reportRowsPerSec(b, float64(tc.tab.Len()))
		})
	}
}

// BenchmarkLatticeSweepPath materializes every node of the 72-node Adult
// lattice on a fresh Problem node by node: each cache miss is a one-node
// plan that coarsens from the cheapest cached finer node (one base scan in
// total). No disclosure DP runs, so it times bucketization alone.
func BenchmarkLatticeSweepPath(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	nodes := 0
	for i := 0; i < b.N; i++ {
		p, err := ckprivacy.NewProblem(tab, ckprivacy.AdultHierarchies(), ckprivacy.AdultQI())
		if err != nil {
			b.Fatal(err)
		}
		nodes = p.Space().Size()
		for _, n := range p.Space().All() {
			bz, err := p.Bucketize(n)
			if err != nil {
				b.Fatal(err)
			}
			sinkI = len(bz.Buckets)
		}
	}
	reportRowsPerSec(b, float64(tab.Len())*float64(nodes))
}

// reportRowsPerSec attaches the rows/s custom metric (rows of work per
// wall second across all iterations).
func reportRowsPerSec(b *testing.B, rowsPerOp float64) {
	if b.Elapsed() > 0 {
		b.ReportMetric(rowsPerOp*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	}
}

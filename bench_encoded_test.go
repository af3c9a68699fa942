package ckprivacy_test

import (
	"testing"

	"ckprivacy"
)

// ---------------------------------------------------------------------------
// Columnar-substrate benchmarks: the encoded bucketization scan, the
// one-time encode cost, and whole-lattice sweeps. All report a rows/s
// custom metric so the CI bench JSON artifact tracks throughput.
// ---------------------------------------------------------------------------

// BenchmarkBucketizeEncoded is one scan of the full-size synthetic Adult
// table at the Figure 5 generalization over a pre-encoded view: one LUT
// index per row and dimension, integer group keys, code-space histograms.
func BenchmarkBucketizeEncoded(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	enc := ckprivacy.EncodeTable(tab)
	chs, err := ckprivacy.CompileHierarchies(enc, ckprivacy.AdultHierarchies())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bz, err := ckprivacy.BucketizeEncoded(enc, chs, fig5Levels())
		if err != nil {
			b.Fatal(err)
		}
		sinkI = len(bz.Buckets)
	}
	reportRowsPerSec(b, float64(tab.Len()))
}

// BenchmarkEncodeTable measures the one-time cost the encoded path
// amortizes: dictionary-encoding the table plus compiling the hierarchies.
func BenchmarkEncodeTable(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := ckprivacy.EncodeTable(tab)
		chs, err := ckprivacy.CompileHierarchies(enc, ckprivacy.AdultHierarchies())
		if err != nil {
			b.Fatal(err)
		}
		sinkI = len(chs)
	}
	reportRowsPerSec(b, float64(tab.Len()))
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

// BenchmarkLatticeSweepPlanned materializes the same 72 Adult lattice
// nodes as BenchmarkLatticeSweepPath, but as one planned sweep: the whole
// node set is scheduled as a derivation DAG up front (one base scan at
// the root, everything else coarsened from its cheapest parent through
// pooled arenas) instead of one plan per cache miss. Reports rows/s plus
// the arena pool's reuse ratio.
func BenchmarkLatticeSweepPlanned(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	gets0, reuses0 := ckprivacy.ArenaStats()
	nodes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ckprivacy.NewProblem(tab, ckprivacy.AdultHierarchies(), ckprivacy.AdultQI())
		if err != nil {
			b.Fatal(err)
		}
		snap := p.Snapshot()
		if err := snap.MaterializeNodes(p.Space().All()); err != nil {
			b.Fatal(err)
		}
		nodes = p.Space().Size()
		for _, n := range p.Space().All() {
			bz, err := snap.Bucketize(n)
			if err != nil {
				b.Fatal(err)
			}
			sinkI = len(bz.Buckets)
		}
	}
	b.StopTimer()
	gets1, reuses1 := ckprivacy.ArenaStats()
	if gets := gets1 - gets0; gets > 0 {
		b.ReportMetric(float64(reuses1-reuses0)/float64(gets), "arena-reuse")
	}
	reportRowsPerSec(b, float64(tab.Len())*float64(nodes))
}

// BenchmarkGridPlanned is a small (c,k) policy grid: every cell's chain
// search hands each probe round to the sweep planner.
func BenchmarkGridPlanned(b *testing.B) {
	tab := mustAdult(b, 4000)
	cfg := ckprivacy.GridConfig{Cs: []float64{0.6, 0.8}, Ks: []int{1, 3, 5}, Workers: 1}
	cells := len(cfg.Cs) * len(cfg.Ks)
	for i := 0; i < b.N; i++ {
		res, err := ckprivacy.RunSafetyGrid(tab, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkI = len(res.Cells)
	}
	reportRowsPerSec(b, float64(tab.Len())*float64(cells))
}

// reportRowsPerSec attaches the rows/s custom metric (rows of work per
// wall second across all iterations).
func reportRowsPerSec(b *testing.B, rowsPerOp float64) {
	if b.Elapsed() > 0 {
		b.ReportMetric(rowsPerOp*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	}
}

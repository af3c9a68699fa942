package ckprivacy_test

import (
	"runtime"
	"testing"

	"ckprivacy"
)

// ---------------------------------------------------------------------------
// Append-path benchmarks: absorbing a 1k-row append into the 45k-row Adult
// table with one warm lattice node, two ways. Rebuild is what every change
// cost before the streaming substrate: re-encode the concatenated table,
// recompile the hierarchies, re-bucketize the node from scratch.
// Incremental is Problem.Append: dictionaries grow in place and the warm
// node is patched with just the appended rows. Both report appended-rows/s
// so the CI bench JSON artifact carries the ratio (the acceptance bar is
// Incremental ≥ 10× Rebuild).
// ---------------------------------------------------------------------------

const appendBatch = 1000

// appendRows returns the 1k-row batch: fresh synthetic Adult rows drawn
// with a different seed than the base table.
func appendRows(b *testing.B) []ckprivacy.Row {
	b.Helper()
	extra := mustAdult(b, ckprivacy.AdultDefaultN+appendBatch)
	rows := make([]ckprivacy.Row, appendBatch)
	copy(rows, extra.Rows[ckprivacy.AdultDefaultN:])
	return rows
}

// BenchmarkAppendSmall/Rebuild measures the full re-encode +
// re-bucketize with the one-shot Bucketize: encode 45k+1k rows, compile
// the hierarchies, scan once at the Figure 5 node.
func BenchmarkAppendSmall(b *testing.B) {
	base := mustAdult(b, ckprivacy.AdultDefaultN)
	extra := appendRows(b)

	b.Run("Rebuild", func(b *testing.B) {
		// The concatenated table is assembled outside the timer: arrival
		// is not what's measured, the rebuild is.
		grown := base.Clone()
		for _, r := range extra {
			if err := grown.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC() // keep setup garbage out of the timed region
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bz, err := ckprivacy.Bucketize(grown, ckprivacy.AdultHierarchies(), fig5Levels())
			if err != nil {
				b.Fatal(err)
			}
			sinkI = len(bz.Buckets)
		}
		reportRowsPerSec(b, appendBatch)
	})

	b.Run("Incremental", func(b *testing.B) {
		b.ReportAllocs()
		// One long-lived problem, warmed at the Figure 5 node — the
		// daemon's steady state. Every iteration streams one 1k batch in,
		// and Append patches the warm node with just those rows.
		p, err := ckprivacy.NewProblem(base.Clone(), ckprivacy.AdultHierarchies(), ckprivacy.AdultQI())
		if err != nil {
			b.Fatal(err)
		}
		node, err := p.NodeForLevels(fig5Levels())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Bucketize(node); err != nil {
			b.Fatal(err)
		}
		// One small warm-up append: the very first append pays the
		// master's one-time column reallocations; the steady state —
		// which is what a resident daemon runs in — is what's measured.
		if _, err := p.Append(extra[:64]); err != nil {
			b.Fatal(err)
		}
		runtime.GC() // keep setup garbage out of the timed region
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := p.Append(extra)
			if err != nil {
				b.Fatal(err)
			}
			if res.PatchedNodes != 1 {
				b.Fatalf("patched %d nodes, want 1", res.PatchedNodes)
			}
			sinkI = res.Rows
		}
		reportRowsPerSec(b, appendBatch)
	})
}

package ckprivacy_test

import (
	"fmt"
	"runtime"
	"testing"

	"ckprivacy"
	"ckprivacy/internal/synth"
)

// ---------------------------------------------------------------------------
// Sharded-scan benchmarks: the row-sharded bucketization against the serial
// encoded scan on ACS-style synthetic tables at 100k and 1M rows. Results
// are byte-identical at every shard count (the parity tests in
// internal/bucket prove it); these measure the throughput side. rows/s
// feeds the CI bench JSON artifact.
// ---------------------------------------------------------------------------

// BenchmarkBucketizeSharded scans each table size serially (shards=1) and
// with one shard per CPU core; on multi-core hosts an 8-shard variant is
// added when it differs from both.
func BenchmarkBucketizeSharded(b *testing.B) {
	shardCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		shardCounts = append(shardCounts, n)
		if n != 8 {
			shardCounts = append(shardCounts, 8)
		}
	}
	for _, rows := range []int{100_000, 1_000_000} {
		bundle, err := synth.Bundle(synth.Config{Rows: rows, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		enc := ckprivacy.EncodeTable(bundle.Table)
		chs, err := ckprivacy.CompileHierarchies(enc, bundle.Hierarchies)
		if err != nil {
			b.Fatal(err)
		}
		for _, shards := range shardCounts {
			b.Run(fmt.Sprintf("rows=%d/shards=%d", rows, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bz, err := ckprivacy.BucketizeEncodedSharded(enc, chs, bundle.DefaultLevels, shards)
					if err != nil {
						b.Fatal(err)
					}
					sinkI = len(bz.Buckets)
				}
				reportRowsPerSec(b, float64(rows))
			})
		}
	}
}

package bucket_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/parallel"
	"ckprivacy/internal/table"
)

// This file is the parity harness of the row-sharded scan: at every shard
// count — including counts exceeding the rows — and on both key paths,
// bucket.FromGeneralizationEncodedSharded must be byte-identical to the
// single-threaded scan and the oracle.Bucketize reference, and its results
// must keep composing with bucket.CoarsenInto and bucket.AppendRows exactly like
// single-threaded ones.

// shardCounts are the shard widths every parity case runs at, per the
// issue: serial, moderately parallel, wider than this container's cores.
var shardCounts = []int{1, 4, 8}

// pools are the parallelism budgets parity cases run under: nil (inline),
// a budget of 1 (degrades to inline but through the token machinery), and
// a real multi-worker budget.
func pools() map[string]*parallel.Pool {
	return map[string]*parallel.Pool{
		"nil-pool":    nil,
		"pool1":       parallel.NewPool(1),
		"pool4":       parallel.NewPool(4),
		"pool-percpu": parallel.NewPool(0),
	}
}

// TestShardedParityRandom is the randomized property test: on random
// tables, hierarchies and level vectors, the sharded scan at 1/4/8 shards
// under every pool shape is byte-identical to the oracle and the
// single-threaded encoded path, and sharded-built fine bucketizations
// coarsen to the same result.
func TestShardedParityRandom(t *testing.T) {
	cases := 120
	if testing.Short() {
		cases = 25
	}
	rng := rand.New(rand.NewSource(17))
	ps := pools()
	for i := 0; i < cases; i++ {
		tab, hs := randCase(rng)
		enc := tab.Encode()
		chs, err := bucket.CompileHierarchies(enc, hs)
		if err != nil {
			t.Fatalf("case %d: compile: %v", i, err)
		}
		levels := randLevels(rng, hs, nil)
		want, err := oracle.Bucketize(tab, hs, levels)
		if err != nil {
			t.Fatalf("case %d: oracle: %v", i, err)
		}
		single, err := bucket.FromGeneralizationEncoded(enc, chs, levels)
		if err != nil {
			t.Fatalf("case %d: encoded: %v", i, err)
		}
		// Rotate pools across cases (running every pool × every shard count
		// × every case would dominate the suite for no extra coverage).
		poolName := []string{"nil-pool", "pool1", "pool4", "pool-percpu"}[i%4]
		pool := ps[poolName]
		for _, shards := range shardCounts {
			label := fmt.Sprintf("case %d levels %v shards %d %s", i, levels, shards, poolName)
			got, err := bucket.FromGeneralizationEncodedSharded(enc, chs, levels, shards, pool)
			if err != nil {
				t.Fatalf("%s: sharded: %v", label, err)
			}
			oracle.RequireIdentical(t, want, got, label+" (vs oracle)")
			oracle.RequireIdentical(t, single, got, label+" (vs single-threaded)")

			// A sharded-built fine bucketization must be a valid CoarsenInto
			// source: derive a coarser vector from it and compare against a
			// direct scan at that vector.
			coarseLevels := bucket.Levels{}
			for name, lvl := range levels {
				top := hs[name].Levels() - 1
				coarseLevels[name] = lvl + rng.Intn(top-lvl+1)
			}
			wantCoarse, err := bucket.FromGeneralizationEncoded(enc, chs, coarseLevels)
			if err != nil {
				t.Fatalf("%s: coarse scan: %v", label, err)
			}
			gotCoarse, err := bucket.CoarsenInto(got, enc, chs, coarseLevels, nil)
			if err != nil {
				t.Fatalf("%s: coarsen sharded: %v", label, err)
			}
			oracle.RequireIdentical(t, wantCoarse, gotCoarse, label+" (coarsen from sharded)")
		}
	}
}

// TestShardedFallbackKeyPath runs the sharded scan on the byte-tuple
// fallback fixture (cardinality product overflows 64 bits): merging must
// group identically to the oracle across the string-keyed shard results
// too.
func TestShardedFallbackKeyPath(t *testing.T) {
	tab, hs := fallbackCase(t)
	enc := tab.Encode()
	chs, err := bucket.CompileHierarchies(enc, hs)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := bucket.Packable(enc, chs, bucket.Levels{})
	if err != nil {
		t.Fatal(err)
	}
	if packed {
		t.Fatal("fixture unexpectedly packable; fallback path not exercised")
	}
	pool := parallel.NewPool(4)
	for _, levels := range []bucket.Levels{{}, {"q0": 1, "q3": 1}, {"q0": 2, "q1": 2, "q2": 2}} {
		want, err := oracle.Bucketize(tab, hs, levels)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range shardCounts {
			got, err := bucket.FromGeneralizationEncodedSharded(enc, chs, levels, shards, pool)
			if err != nil {
				t.Fatal(err)
			}
			oracle.RequireIdentical(t, want, got, fmt.Sprintf("fallback levels %v shards %d", levels, shards))
		}
	}
}

// TestShardedSparseSensitive drives the sparse-histogram merge: with a
// sensitive cardinality above the dense threshold, per-shard groups carry
// map histograms and the merge must fold them map-to-map, landing on the
// oracle's histograms.
func TestShardedSparseSensitive(t *testing.T) {
	const rows = 400
	sdom := make([]string, rows)
	for i := range sdom {
		sdom[i] = fmt.Sprintf("s%03d", i)
	}
	s, err := table.NewSchema([]table.Attribute{
		{Name: "Age", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "Sex", Kind: table.Categorical, Domain: []string{"M", "F"}},
		{Name: "sens", Kind: table.Categorical, Domain: sdom},
	}, "sens")
	if err != nil {
		t.Fatal(err)
	}
	hs := hierarchy.Set{
		"Age": hierarchy.MustInterval("Age", []int{1, 10, 0}),
		"Sex": hierarchy.NewSuppression("Sex", []string{"M", "F"}),
	}
	tab := table.New(s)
	rng := rand.New(rand.NewSource(5))
	for r := 0; r < rows; r++ {
		tab.MustAppend(table.Row{
			strconv.Itoa(rng.Intn(100)),
			[]string{"M", "F"}[rng.Intn(2)],
			sdom[r],
		})
	}
	enc := tab.Encode()
	if enc.SensitiveDict().Len() <= bucket.MaxDenseSensitive {
		t.Fatalf("fixture cardinality %d does not exceed the dense threshold %d",
			enc.SensitiveDict().Len(), bucket.MaxDenseSensitive)
	}
	chs, err := bucket.CompileHierarchies(enc, hs)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(4)
	for _, levels := range []bucket.Levels{{}, {"Age": 1}, {"Age": 2, "Sex": 1}} {
		want, err := oracle.Bucketize(tab, hs, levels)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range shardCounts {
			got, err := bucket.FromGeneralizationEncodedSharded(enc, chs, levels, shards, pool)
			if err != nil {
				t.Fatal(err)
			}
			oracle.RequireIdentical(t, want, got, fmt.Sprintf("sparse levels %v shards %d", levels, shards))
		}
	}
}

// TestShardedAppendRowsInteraction checks both directions of the
// bucket.AppendRows composition: a sharded-built base accepts an append patch,
// and the patched result matches a sharded rebuild of the grown table.
func TestShardedAppendRowsInteraction(t *testing.T) {
	cases := 40
	if testing.Short() {
		cases = 10
	}
	rng := rand.New(rand.NewSource(23))
	pool := parallel.NewPool(4)
	for i := 0; i < cases; i++ {
		tab, hs := randCase(rng)
		base, extra := splitRows(rng, tab)
		enc, chs, start := buildAppended(t, tab.Schema, hs, base, extra)
		levels := randLevels(rng, hs, nil)

		baseTab := table.New(tab.Schema)
		for _, r := range base {
			baseTab.MustAppend(r)
		}
		baseEnc := baseTab.Encode()
		baseCHS, err := bucket.CompileHierarchies(baseEnc, hs)
		if err != nil {
			t.Fatalf("case %d: base compile: %v", i, err)
		}
		want, err := oracle.Bucketize(enc.Table, hs, levels)
		if err != nil {
			t.Fatalf("case %d: string rebuild: %v", i, err)
		}
		for _, shards := range shardCounts {
			label := fmt.Sprintf("case %d cut %d levels %v shards %d", i, start, levels, shards)
			before, err := bucket.FromGeneralizationEncodedSharded(baseEnc, baseCHS, levels, shards, pool)
			if err != nil {
				t.Fatalf("%s: base scan: %v", label, err)
			}
			got, err := bucket.AppendRows(before, enc, chs, levels, start)
			if err != nil {
				t.Fatalf("%s: bucket.AppendRows: %v", label, err)
			}
			oracle.RequireIdentical(t, want, got, label+" (append onto sharded base)")

			rebuilt, err := bucket.FromGeneralizationEncodedSharded(enc, chs, levels, shards, pool)
			if err != nil {
				t.Fatalf("%s: sharded rebuild: %v", label, err)
			}
			oracle.RequireIdentical(t, want, rebuilt, label+" (sharded rebuild of grown table)")
		}
	}
}

// TestShardedDegenerateShapes pins the edge geometry: an empty table, a
// single row, and more shards than rows (shards clamp to the row count).
func TestShardedDegenerateShapes(t *testing.T) {
	tab, hs := randCase(rand.New(rand.NewSource(41)))
	enc := tab.Encode()
	chs, err := bucket.CompileHierarchies(enc, hs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bucket.FromGeneralizationEncoded(enc, chs, bucket.Levels{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{-3, 0, enc.Rows(), enc.Rows() + 7, 1 << 16} {
		got, err := bucket.FromGeneralizationEncodedSharded(enc, chs, bucket.Levels{}, shards, parallel.NewPool(4))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		oracle.RequireIdentical(t, want, got, fmt.Sprintf("shards=%d", shards))
	}

	empty := table.New(enc.Table.Schema).Encode()
	emptyCHS, err := bucket.CompileHierarchies(empty, hs)
	if err != nil {
		t.Fatal(err)
	}
	bz, err := bucket.FromGeneralizationEncodedSharded(empty, emptyCHS, bucket.Levels{}, 8, parallel.NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(bz.Buckets) != 0 {
		t.Fatalf("empty table produced %d buckets", len(bz.Buckets))
	}
}

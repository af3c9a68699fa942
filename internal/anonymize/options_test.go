package anonymize

import (
	"fmt"
	"runtime"
	"testing"

	"ckprivacy/internal/oracle"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/table"
)

// forceSharding drops the small-table clamp for the duration of a test so
// the hospital-sized fixtures actually exercise the sharded scan.
func forceSharding(t *testing.T) {
	t.Helper()
	old := minRowsPerShard
	minRowsPerShard = 1
	t.Cleanup(func() { minRowsPerShard = old })
}

// hospitalOptions is hospital built through the struct constructor.
func hospitalOptions(t *testing.T, o Options) *Problem {
	t.Helper()
	base := hospital(t)
	p, err := NewProblemWithOptions(base.Table, base.Hierarchies, base.QI, o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOptionsResolution pins the struct-options surface: defaults, the
// per-core resolution of non-positive budgets, the resolved view Options()
// reports, and that NewProblem builds with the defaults.
func TestOptionsResolution(t *testing.T) {
	if d := DefaultOptions(); d.Workers != 1 || d.ShardWorkers != 1 || d.MemoMaxBytes != 0 {
		t.Fatalf("DefaultOptions() = %+v, want serial single-threaded defaults", d)
	}

	p := hospitalOptions(t, Options{Workers: 3, ShardWorkers: 4, MemoMaxBytes: 1 << 20})
	if got := p.Options(); got.Workers != 3 || got.ShardWorkers != 4 || got.MemoMaxBytes != 1<<20 {
		t.Fatalf("Options() = %+v, want workers 3, shards 4, memo 1MiB", got)
	}
	if p.Engine() == nil {
		t.Fatal("problem built without its engine")
	}

	// Non-positive budgets resolve to one per core.
	p = hospitalOptions(t, Options{Workers: 0, ShardWorkers: -2})
	if got := p.Options(); got.Workers != runtime.GOMAXPROCS(0) || got.ShardWorkers != runtime.GOMAXPROCS(0) {
		t.Fatalf("Options() = %+v, want per-core budgets (%d)", got, runtime.GOMAXPROCS(0))
	}

	// NewProblem is NewProblemWithOptions at the defaults.
	if got := hospital(t).Options(); got.Workers != 1 || got.ShardWorkers != 1 || got.MemoMaxBytes != 0 {
		t.Fatalf("NewProblem options = %+v, want the defaults", got)
	}
}

// TestShardedProblemParity is the anonymize-layer parity check: a problem
// with a shard budget must return byte-identical bucketizations and search
// results to the serial problem — through the cache fill, the coarsening
// derivation, and nested node×shard search parallelism.
func TestShardedProblemParity(t *testing.T) {
	forceSharding(t)
	serial := hospital(t)
	for _, o := range []Options{
		{Workers: 1, ShardWorkers: 4},
		{Workers: 1, ShardWorkers: 8},
		{Workers: 4, ShardWorkers: 4}, // nested: node workers × shard workers
	} {
		sharded := hospitalOptions(t, o)
		// Every lattice node, materialized twice on the sharded problem: the
		// first call scans (sharded) or coarsens from an already-recorded
		// source, the second hits the cache; both must equal the serial
		// problem's bucketization byte for byte.
		for _, node := range serial.Space().All() {
			want, err := serial.Bucketize(node)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := sharded.Bucketize(node)
				if err != nil {
					t.Fatal(err)
				}
				oracle.RequireIdentical(t, want, got, fmt.Sprintf("options %+v node %v", o, node))
			}
		}

		crit := privacy.CKSafety{C: 0.8, K: 2, Engine: sharded.Engine()}
		wantN, wantStats, err := serial.MinimalSafe(privacy.CKSafety{C: 0.8, K: 2, Engine: serial.Engine()})
		if err != nil {
			t.Fatal(err)
		}
		gotN, gotStats, err := sharded.MinimalSafe(crit)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNodeOrder(wantN, gotN) || wantStats != gotStats {
			t.Fatalf("options %+v: MinimalSafe %v/%+v != serial %v/%+v", o, gotN, gotStats, wantN, wantStats)
		}
	}
}

// TestShardedAppendParity drives Append on a sharded problem: patched
// warm state and post-append scans must match a from-scratch serial
// problem over the grown table.
func TestShardedAppendParity(t *testing.T) {
	forceSharding(t)
	sharded := hospitalOptions(t, Options{Workers: 2, ShardWorkers: 4})
	// Warm the caches at every node before appending, so the append has
	// sharded-built state to patch.
	for _, node := range sharded.Space().All() {
		if _, err := sharded.Bucketize(node); err != nil {
			t.Fatal(err)
		}
	}
	extra := []table.Row{
		{"14851", "31", "F", "flu"},
		{"14853", "22", "M", "mumps"},
		{"14850", "44", "F", "heart-disease"},
	}
	if _, err := sharded.Append(extra); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewProblem(sharded.Table, sharded.Hierarchies, sharded.QI)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range sharded.Space().All() {
		want, err := fresh.Bucketize(node)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Bucketize(node)
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, want, got, fmt.Sprintf("appended node %v", node))
	}
}

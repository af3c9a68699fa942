package anonymize

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ckprivacy/internal/lattice"
	"ckprivacy/internal/table"
)

// Randomized full-sweep parity: a planned sweep (one derivation DAG,
// frontier batches, pooled arenas) must produce the oracle's
// bucketizations, search nodes and disclosure values at every worker
// count, and again after an append patches the encoded substrate between
// two sweeps (the planner must replan against the patched cache, not
// reuse stale sources).

// cloneTable deep-copies a table so each problem under comparison owns
// its rows — Append mutates the problem's table in place.
func cloneTable(tab *table.Table) *table.Table {
	c := table.New(tab.Schema)
	for _, r := range tab.Rows {
		c.MustAppend(append(table.Row(nil), r...))
	}
	return c
}

// randomRows draws n fresh rows matching the schema's attribute kinds.
func randomRows(rng *rand.Rand, s *table.Schema, n int) []table.Row {
	rows := make([]table.Row, n)
	for r := range rows {
		row := make(table.Row, len(s.Attrs))
		for c, a := range s.Attrs {
			if a.Kind == table.Numeric {
				row[c] = strconv.Itoa(rng.Intn(100))
			} else {
				row[c] = a.Domain[rng.Intn(len(a.Domain))]
			}
		}
		rows[r] = row
	}
	return rows
}

// TestPlannedSweepParity is the full-sweep parity property test.
func TestPlannedSweepParity(t *testing.T) {
	cases := 8
	if testing.Short() {
		cases = 3
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < cases; i++ {
		tab, hs, qi := randomProblemCase(rng)
		extra := randomRows(rng, tab.Schema, 5+rng.Intn(20))
		c := []float64{0.4, 0.6, 0.8}[rng.Intn(3)]
		k := 1 + rng.Intn(2)
		var refs [2]searchResult
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("case %d (c=%v k=%d workers=%d)", i, c, k, workers)
			p := problemWithWorkers(t, cloneTable(tab), hs, qi, workers)
			var got [2]searchResult
			for pass, when := range []string{"", " after append"} {
				if pass == 1 {
					if _, err := p.Append(extra); err != nil {
						t.Fatalf("%s: append: %v", label, err)
					}
				}
				snap := p.Snapshot()
				if err := snap.MaterializeNodes(p.Space().All()); err != nil {
					t.Fatalf("%s%s: planned sweep: %v", label, when, err)
				}
				got[pass] = checkAgainstOracle(t, label+when, snap, c, k)
			}
			if ss := p.SweepStats(); ss.Sweeps == 0 || ss.Coarsened == 0 {
				t.Fatalf("%s: planner never coarsened: %+v", label, ss)
			}
			if workers == 1 {
				refs = got
			} else if !reflect.DeepEqual(refs, got) {
				t.Fatalf("%s: searches differ from workers=1: %+v vs %+v", label, got, refs)
			}
		}
	}
}

// TestColdMissIsOneNodePlan pins the accounting of the miss path: a cold
// Bucketize is a one-node plan (one cache miss, one planned node, one
// sweep), and repeating it is one cache hit with no further miss or plan.
func TestColdMissIsOneNodePlan(t *testing.T) {
	p := hospital(t)
	snap := p.Snapshot()
	node := lattice.Node{1, 1, 0}
	if _, err := snap.Bucketize(node); err != nil {
		t.Fatal(err)
	}
	cs, ss := p.CacheStats(), p.SweepStats()
	if cs.Misses != 1 || cs.Hits != 0 || ss.PlannedNodes != 1 || ss.Sweeps != 1 || ss.BaseScans != 1 {
		t.Fatalf("cold Bucketize: cache %+v, sweeps %+v; want 1 miss, 1 planned node, 1 base scan", cs, ss)
	}
	if _, err := snap.Bucketize(node); err != nil {
		t.Fatal(err)
	}
	cs, ss = p.CacheStats(), p.SweepStats()
	if cs.Misses != 1 || cs.Hits != 1 || ss.PlannedNodes != 1 || ss.Sweeps != 1 {
		t.Fatalf("repeat Bucketize: cache %+v, sweeps %+v; want 1 hit and no new miss or plan", cs, ss)
	}
	// A cold coarser node derives from the cached one instead of scanning.
	if _, err := snap.Bucketize(lattice.Node{2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	cs, ss = p.CacheStats(), p.SweepStats()
	if cs.Misses != 2 || ss.PlannedNodes != 2 || ss.BaseScans != 1 || ss.Coarsened != 1 {
		t.Fatalf("cold coarser Bucketize: cache %+v, sweeps %+v; want it coarsened from the cached node", cs, ss)
	}
}

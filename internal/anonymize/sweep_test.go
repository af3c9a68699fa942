package anonymize

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/oracle"
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

// Row indexes along a plan: a base scan hands its index to its children,
// and a source without one (a cached entry, or one Problem.Append
// patched) is indexed from its tuples once per plan. Whatever the root,
// every planned result must equal the oracle and carry an index that maps
// each row to the bucket holding it.

// planRoots names the three kinds of plan root: a base scan inside the
// plan, a cached source, and a cached source patched by Problem.Append.
var planRoots = []string{"scan", "cached", "appended"}

// rootedSnapshot returns a snapshot of a fresh problem over tab whose
// bottom node is, per root, cold, cached, or cached and then patched by
// appending extra.
func rootedSnapshot(t *testing.T, root string, tab *table.Table, hs hierarchy.Set, qi []string, extra []table.Row) *Snapshot {
	t.Helper()
	p := problemWithWorkers(t, cloneTable(tab), hs, qi, 2)
	if root != "scan" {
		if _, err := p.Bucketize(p.Space().Bottom()); err != nil {
			t.Fatal(err)
		}
	}
	if root == "appended" {
		if _, err := p.Append(extra); err != nil {
			t.Fatal(err)
		}
	}
	return p.Snapshot()
}

// fullNodeUnits wraps full-lattice nodes as plan units.
func fullNodeUnits(s *Snapshot, nodes ...lattice.Node) []subsetNode {
	id := identitySubset(len(s.p.QI))
	units := make([]subsetNode, len(nodes))
	for i, n := range nodes {
		units[i] = subsetNode{subset: id, node: n}
	}
	return units
}

// requireResultIndex fails unless r's row index maps every row of the
// snapshot to the bucket whose tuples hold it.
func requireResultIndex(t *testing.T, label string, s *Snapshot, r *planResult) {
	t.Helper()
	rows := s.Rows()
	idx, err := r.index(rows)
	if err != nil {
		t.Fatalf("%s: index: %v", label, err)
	}
	if idx.Rows() != rows {
		t.Fatalf("%s: index covers %d rows, want %d", label, idx.Rows(), rows)
	}
	for row := 0; row < rows; row++ {
		b := idx.Bucket(row)
		if b < 0 || b >= len(r.bz.Buckets) {
			t.Fatalf("%s: row %d maps to bucket %d of %d", label, row, b, len(r.bz.Buckets))
		}
		if _, ok := slices.BinarySearch(r.bz.Buckets[b].Tuples, row); !ok {
			t.Fatalf("%s: row %d maps to bucket %d, which does not hold it", label, row, b)
		}
	}
}

// TestPlannedIndexesMapRows plans the whole lattice from each kind of
// root and checks every planned node's result and row index.
func TestPlannedIndexesMapRows(t *testing.T) {
	cases := 6
	if testing.Short() {
		cases = 2
	}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < cases; i++ {
		tab, hs, qi := randomProblemCase(rng)
		extra := randomRows(rng, tab.Schema, 5+rng.Intn(20))
		for _, root := range planRoots {
			label := fmt.Sprintf("case %d root %s", i, root)
			snap := rootedSnapshot(t, root, tab, hs, qi, extra)
			scans := snap.p.SweepStats().BaseScans
			pl, err := snap.buildPlan(fullNodeUnits(snap, snap.p.Space().All()...))
			if err != nil {
				t.Fatal(err)
			}
			results, err := snap.runPlan(pl)
			if err != nil {
				t.Fatalf("%s: run: %v", label, err)
			}
			if wantScans := map[bool]uint64{true: 1, false: 0}[root == "scan"]; snap.p.SweepStats().BaseScans-scans != wantScans {
				t.Fatalf("%s: plan ran %d base scans, want %d", label, snap.p.SweepStats().BaseScans-scans, wantScans)
			}
			for j, r := range results {
				levels := pl.nodes[j].levels
				want, err := oracle.Bucketize(snap.Table(), snap.p.Hierarchies, levels)
				if err != nil {
					t.Fatal(err)
				}
				oracle.RequireIdentical(t, want, r.bz, fmt.Sprintf("%s levels %v", label, levels))
				requireResultIndex(t, fmt.Sprintf("%s levels %v", label, levels), snap, r)
			}
		}
	}
}

// TestIndexChainRoots derives a chain root → a → top in one plan, a
// coarsening from the root and top from a through a's index, from each
// kind of root, and requires both results to equal the oracle and the
// path that indexes every source from its tuples (bucket.CoarsenInto).
func TestIndexChainRoots(t *testing.T) {
	cases := 8
	if testing.Short() {
		cases = 3
	}
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < cases; i++ {
		tab, hs, qi := randomProblemCase(rng)
		extra := randomRows(rng, tab.Schema, 5+rng.Intn(20))
		for _, root := range planRoots {
			label := fmt.Sprintf("case %d root %s", i, root)
			snap := rootedSnapshot(t, root, tab, hs, qi, extra)
			space := snap.p.Space()
			bottom, top := space.Bottom(), space.Top()
			// Find a middle node the planner derives top from.
			var pl *sweepPlan
			for _, a := range space.All() {
				if a.Key() == bottom.Key() || a.Key() == top.Key() {
					continue
				}
				units := fullNodeUnits(snap, a, top)
				if root == "scan" {
					units = fullNodeUnits(snap, bottom, a, top)
				}
				cand, err := snap.buildPlan(units)
				if err != nil {
					t.Fatal(err)
				}
				if isChain(cand, root == "scan") {
					pl = cand
					break
				}
			}
			if pl == nil {
				t.Fatalf("%s: no middle node a made a root → a → top plan", label)
			}
			results, err := snap.runPlan(pl)
			if err != nil {
				t.Fatalf("%s: run: %v", label, err)
			}
			n := len(results)
			rootBz, err := snap.Bucketize(bottom)
			if err != nil {
				t.Fatal(err)
			}
			viaTuples := rootBz
			for j, r := range results[n-2:] {
				levels := pl.nodes[n-2+j].levels
				step := fmt.Sprintf("%s step %v", label, levels)
				want, err := oracle.Bucketize(snap.Table(), snap.p.Hierarchies, levels)
				if err != nil {
					t.Fatal(err)
				}
				oracle.RequireIdentical(t, want, r.bz, step)
				if viaTuples, err = bucket.CoarsenInto(viaTuples, snap.st.enc, snap.st.compiled, levels); err != nil {
					t.Fatal(err)
				}
				oracle.RequireIdentical(t, viaTuples, r.bz, step+" via tuples")
				requireResultIndex(t, step, snap, r)
			}
		}
	}
}

// isChain reports whether a plan's last two nodes form root → a → top: a
// derives from the root (planned when scanRoot, else a cached source)
// and top from a.
func isChain(pl *sweepPlan, scanRoot bool) bool {
	n := len(pl.nodes)
	if n < 2 {
		return false
	}
	a, top := &pl.nodes[n-2], &pl.nodes[n-1]
	if top.parent != n-2 {
		return false
	}
	if scanRoot {
		return n == 3 && a.parent == 0 && pl.nodes[0].parent < 0 && pl.nodes[0].source == nil
	}
	return a.parent < 0 && a.source != nil && !a.exact
}

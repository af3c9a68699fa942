package anonymize

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/dataset/adult"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/privacy"
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

// TestSearchHitsCountAtHandoff: a lattice search counts each level vector
// it requests once, at its frontier hand-off (a hit when cached, a miss
// when materialized), and its predicate's reads count nothing. So a cold
// search on a fresh Adult problem reports no hit and a miss per distinct
// vector, and repeating it reports a hit per distinct vector and no new
// miss, for Incognito too, whose subset nodes induce some vectors twice.
func TestSearchHitsCountAtHandoff(t *testing.T) {
	tab := adult.MustGenerate(adult.Config{Seed: 1})
	searches := map[string]func(*Problem) error{
		"MinimalSafe": func(p *Problem) error {
			_, _, err := p.MinimalSafe(privacy.KAnonymity{K: 5})
			return err
		},
		"MinimalSafeIncognito": func(p *Problem) error {
			_, _, err := p.MinimalSafeIncognito(privacy.KAnonymity{K: 5})
			return err
		},
	}
	for name, search := range searches {
		p, err := NewProblem(tab, adult.Hierarchies(), adult.QuasiIdentifiers())
		if err != nil {
			t.Fatal(err)
		}
		if err := search(p); err != nil {
			t.Fatal(err)
		}
		cold := p.CacheStats()
		if cold.Hits != 0 || cold.Misses == 0 || cold.Misses != uint64(cold.Entries) {
			t.Errorf("%s cold: cache %+v, want no hit and one miss per entry", name, cold)
		}
		if err := search(p); err != nil {
			t.Fatal(err)
		}
		if warm := p.CacheStats(); warm.Hits != cold.Misses || warm.Misses != cold.Misses {
			t.Errorf("%s repeated: cache %+v after %+v, want a hit per vector and no new miss", name, warm, cold)
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

// fullNodeUnits maps full-lattice nodes to the level vectors a plan
// takes.
func fullNodeUnits(t *testing.T, s *Snapshot, nodes ...lattice.Node) [][]int {
	t.Helper()
	vecs := make([][]int, len(nodes))
	for i, n := range nodes {
		vec, err := s.p.vector(s.p.layout.all, n)
		if err != nil {
			t.Fatal(err)
		}
		vecs[i] = vec
	}
	return vecs
}

// vecLevels is the level assignment a complete level vector (schema QI
// order) spells out, for the oracle.
func vecLevels(schema *table.Schema, vec []int) bucket.Levels {
	levels := bucket.Levels{}
	for i, col := range schema.QuasiIdentifiers() {
		levels[schema.Attrs[col].Name] = vec[i]
	}
	return levels
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
			pl := snap.buildPlan(fullNodeUnits(t, snap, snap.p.Space().All()...), true, nil)
			results, err := snap.runPlan(pl)
			if err != nil {
				t.Fatalf("%s: run: %v", label, err)
			}
			if wantScans := map[bool]uint64{true: 1, false: 0}[root == "scan"]; snap.p.SweepStats().BaseScans-scans != wantScans {
				t.Fatalf("%s: plan ran %d base scans, want %d", label, snap.p.SweepStats().BaseScans-scans, wantScans)
			}
			for j, r := range results {
				levels := vecLevels(snap.Table().Schema, pl.nodes[j].vec)
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
// path that indexes every source from its tuples (bucket.IndexOf, then
// bucket.CoarsenIndexed).
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
				units := fullNodeUnits(t, snap, a, top)
				if root == "scan" {
					units = fullNodeUnits(t, snap, bottom, a, top)
				}
				if cand := snap.buildPlan(units, true, nil); isChain(cand, root == "scan") {
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
				levels := vecLevels(snap.Table().Schema, pl.nodes[n-2+j].vec)
				step := fmt.Sprintf("%s step %v", label, levels)
				want, err := oracle.Bucketize(snap.Table(), snap.p.Hierarchies, levels)
				if err != nil {
					t.Fatal(err)
				}
				oracle.RequireIdentical(t, want, r.bz, step)
				idx, err := bucket.IndexOf(viaTuples, snap.st.enc.Rows())
				if err != nil {
					t.Fatal(err)
				}
				if viaTuples, _, err = bucket.CoarsenIndexed(viaTuples, idx, snap.st.enc, snap.st.compiled, levels); err != nil {
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
	return a.parent < 0 && a.source != nil
}

// TestConcurrentMissesMaterializeOnce: 8 goroutines bucketize one cold
// node on one snapshot at once. The first to claim the node's level
// vector scans it; the others wait for the claim and reuse its result, so
// the node is materialized once: one cache miss and one base scan, and
// every caller gets the oracle's bucketization.
func TestConcurrentMissesMaterializeOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for rep := 0; rep < 10; rep++ {
		tab, hs, qi := randomProblemCase(rng)
		p := problemWithWorkers(t, tab, hs, qi, 1)
		snap := p.Snapshot()
		node := p.Space().Bottom()
		want, err := oracleBucketize(snap, node)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*bucket.Bucketization, 8)
		errs := make([]error, len(got))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g], errs[g] = snap.Bucketize(node)
			}()
		}
		close(start)
		wg.Wait()
		for g, bz := range got {
			if errs[g] != nil {
				t.Fatalf("rep %d goroutine %d: %v", rep, g, errs[g])
			}
			oracle.RequireIdentical(t, want, bz, fmt.Sprintf("rep %d goroutine %d", rep, g))
		}
		if cs, ss := p.CacheStats(), p.SweepStats(); cs.Misses != 1 || ss.BaseScans != 1 {
			t.Fatalf("rep %d: cache %+v, sweeps %+v; want 1 miss and 1 base scan", rep, cs, ss)
		}
	}
}

// TestFailedClaimReleasesWaiters: a leader whose materialization fails
// releases its claim with the error, so every concurrent miss of the node
// fails with it instead of hanging, nothing is cached, and a later miss
// claims the vector afresh.
func TestFailedClaimReleasesWaiters(t *testing.T) {
	p := hospital(t)
	good := p.Snapshot()
	// A snapshot of the same version whose compiled hierarchies are gone:
	// every scan at a generalized level fails.
	st := *good.st
	st.compiled = hierarchy.CompiledSet{}
	bad := &Snapshot{p: p, st: &st}
	node := lattice.Node{1, 1, 0}
	errs := make(chan error, 8)
	for g := 0; g < cap(errs); g++ {
		go func() {
			_, err := bad.Bucketize(node)
			errs <- err
		}()
	}
	for g := 0; g < cap(errs); g++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a miss on a failing snapshot succeeded")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a waiter on a failed claim hung")
		}
	}
	if n := good.st.cache.size(); n != 0 {
		t.Fatalf("failed materializations cached %d entries", n)
	}
	bz, err := good.Bucketize(node)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleBucketize(good, node)
	if err != nil {
		t.Fatal(err)
	}
	oracle.RequireIdentical(t, want, bz, "after a failed claim")
}

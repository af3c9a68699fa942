package anonymize

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/dataset/adult"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/privacy"
)

// This file tests the problem's two forms of cache entry: the searches
// and BucketizeHistograms cache bucketizations without row ids, and a
// row-id read of such an entry fills them in, once, sharing everything
// the entry already holds.

// requireHistogramForm fails unless got is the histogram form of want, a
// bucketization that holds its row ids: the same buckets in the same
// order, with the same keys, sizes, representative rows (want's smallest
// row) and histograms, and no row ids.
func requireHistogramForm(t testing.TB, want, got *bucket.Bucketization, label string) {
	t.Helper()
	if len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("%s: %d buckets, want %d", label, len(got.Buckets), len(want.Buckets))
	}
	for i, w := range want.Buckets {
		g := got.Buckets[i]
		if g.Tuples != nil {
			t.Fatalf("%s: bucket %d (%s) holds row ids %v", label, i, g.Key, g.Tuples)
		}
		if g.Key != w.Key || g.Size() != w.Size() || g.Rep() != slices.Min(w.Tuples) {
			t.Fatalf("%s: bucket %d is %q of %d rows from row %d, want %q of %d from %d", label, i, g.Key, g.Size(), g.Rep(), w.Key, w.Size(), slices.Min(w.Tuples))
		}
		if !reflect.DeepEqual(g.Freq(), w.Freq()) {
			t.Fatalf("%s: bucket %d (%s) freq %v, want %v", label, i, g.Key, g.Freq(), w.Freq())
		}
	}
}

// requireNoRowIDs fails unless every entry cached on s is in the
// histogram form, with no bucket holding row ids.
func requireNoRowIDs(t *testing.T, label string, s *Snapshot) {
	t.Helper()
	s.st.cache.each(func(key string, e cached) {
		if e.rowIDs {
			t.Fatalf("%s: entry %s holds row ids", label, key)
		}
		for _, b := range e.bz.Buckets {
			if b.Tuples != nil {
				t.Fatalf("%s: entry %s bucket %q holds row ids", label, key, b.Key)
			}
		}
	})
}

// TestSearchesCacheHistogramForm: every search on a fresh problem reads
// only histograms, so it leaves no bucket with row ids in the cache, and
// its answers are the oracle's (checkAgainstOracle, which then reads every
// node with its row ids, filling them in).
func TestSearchesCacheHistogramForm(t *testing.T) {
	cases := 12
	if testing.Short() {
		cases = 4
	}
	rng := rand.New(rand.NewSource(89))
	for i := 0; i < cases; i++ {
		tab, hs, qi := randomProblemCase(rng)
		c, k := 0.5+0.1*float64(rng.Intn(5)), rng.Intn(3)
		for name, search := range map[string]func(*Snapshot) error{
			"MinimalSafe": func(s *Snapshot) error {
				_, _, err := s.MinimalSafe(s.p.CKSafety(c, k))
				return err
			},
			"MinimalSafeIncognito": func(s *Snapshot) error {
				_, _, err := s.MinimalSafeIncognito(s.p.CKSafety(c, k))
				return err
			},
			"ChainSearch": func(s *Snapshot) error {
				_, _, _, err := s.ChainSearch(s.p.CKSafety(c, k))
				return err
			},
		} {
			snap := problemWithWorkers(t, tab, hs, qi, 1+i%2).Snapshot()
			if err := search(snap); err != nil {
				t.Fatal(err)
			}
			requireNoRowIDs(t, fmt.Sprintf("case %d %s", i, name), snap)
		}
		checkAgainstOracle(t, fmt.Sprintf("case %d", i), problemWithWorkers(t, tab, hs, qi, 2).Snapshot(), c, k)
	}
}

// TestIncognitoScansOnce: Incognito's first layer asks for several
// pairwise incomparable vectors finer than anything cached. A histogram
// plan scans their component-wise minimum once and coarsens them from it,
// so a 5-anonymity search on Adult scans the table once at one and at
// two workers, with the nodes and Stats the search has always returned,
// and caches neither the minimum nor any row id.
func TestIncognitoScansOnce(t *testing.T) {
	tab := adult.MustGenerate(adult.Config{Seed: 1})
	const wantNodes = "[[0 2 1 0] [1 1 1 1] [2 1 1 0] [3 0 1 0] [3 2 0 1] [5 1 0 0]]"
	for _, workers := range []int{1, 2} {
		p := problemWithWorkers(t, tab, adult.Hierarchies(), adult.QuasiIdentifiers(), workers)
		nodes, stats, err := p.MinimalSafeIncognito(privacy.KAnonymity{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(nodes); got != wantNodes || stats != (lattice.Stats{Evaluated: 47, Inferred: 204}) {
			t.Fatalf("workers %d: nodes %s stats %+v, want %s and 47 evaluated, 204 inferred", workers, got, stats, wantNodes)
		}
		ss, cs := p.SweepStats(), p.CacheStats()
		if ss.BaseScans != 1 || ss.PlannedNodes != ss.BaseScans+ss.Coarsened || cs.Misses != ss.Coarsened || cs.Entries != int(cs.Misses) {
			t.Fatalf("workers %d: sweeps %+v cache %+v, want one base scan, not cached, and every cached vector coarsened", workers, ss, cs)
		}
		requireNoRowIDs(t, fmt.Sprintf("workers %d", workers), p.Snapshot())
	}
}

// TestHistogramReadThenFillIn reads every node through
// BucketizeHistograms, publishes each one's disclosure series, then reads
// half the nodes with Bucketize and the rest through MaterializeNodes.
// Each row-id read must be byte-identical to a fresh problem's, row ids
// included, keep the histogram entry's series and histograms, and count
// no cache miss or planned node: a fill-in materializes nothing new. A
// row-id read of a coarser uncached node after a histogram read must not
// derive from the histogram entry: it scans.
func TestHistogramReadThenFillIn(t *testing.T) {
	cases := 10
	if testing.Short() {
		cases = 4
	}
	rng := rand.New(rand.NewSource(83))
	for i := 0; i < cases; i++ {
		tab, hs, qi := randomProblemCase(rng)
		p := problemWithWorkers(t, tab, hs, qi, 1+i%2)
		fresh := problemWithWorkers(t, tab, hs, qi, 1)
		snap := p.Snapshot()
		all := p.Space().All()
		hists, err := snap.BucketizeHistograms(all)
		if err != nil {
			t.Fatal(err)
		}
		for j, node := range all {
			want, err := fresh.Bucketize(node)
			if err != nil {
				t.Fatal(err)
			}
			requireHistogramForm(t, want, hists[j], fmt.Sprintf("case %d node %v", i, node))
			if _, err := p.Engine().Series(hists[j], 2); err != nil {
				t.Fatal(err)
			}
		}
		requireNoRowIDs(t, fmt.Sprintf("case %d", i), snap)

		misses, planned := p.CacheStats().Misses, p.SweepStats().PlannedNodes
		half := len(all) / 2
		if err := snap.MaterializeNodes(all[half:]); err != nil {
			t.Fatal(err)
		}
		for j, node := range all {
			label := fmt.Sprintf("case %d node %v", i, node)
			got, err := snap.Bucketize(node)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Bucketize(node)
			if err != nil {
				t.Fatal(err)
			}
			oracle.RequireIdentical(t, want, got, label)
			for v := 0; v < bucket.SeriesVariants; v++ {
				if d, h := got.DisclosureSeries(v), hists[j].DisclosureSeries(v); len(d) != len(h) || (len(h) > 0 && &d[0] != &h[0]) {
					t.Fatalf("%s: variant %d series %v after the fill-in, %v before", label, v, d, h)
				}
			}
			for b := range got.Buckets {
				if &got.Buckets[b].Histogram()[0] != &hists[j].Buckets[b].Histogram()[0] {
					t.Fatalf("%s: bucket %d rebuilt its histogram", label, b)
				}
			}
			if again, err := snap.Bucketize(node); err != nil || again != got {
				t.Fatalf("%s: a second row-id read got another bucketization (%v)", label, err)
			}
		}
		if p.CacheStats().Misses != misses || p.SweepStats().PlannedNodes != planned {
			t.Fatalf("case %d: fill-ins moved misses %d→%d and planned nodes %d→%d", i, misses, p.CacheStats().Misses, planned, p.SweepStats().PlannedNodes)
		}

		q := problemWithWorkers(t, tab, hs, qi, 1)
		space := q.Space()
		if _, err := q.Snapshot().BucketizeHistograms([]lattice.Node{space.Bottom()}); err != nil {
			t.Fatal(err)
		}
		before := q.SweepStats()
		got, err := q.Bucketize(space.Top())
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Bucketize(space.Top())
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, want, got, fmt.Sprintf("case %d top after a histogram bottom", i))
		if after := q.SweepStats(); after.BaseScans != before.BaseScans+1 || after.Coarsened != before.Coarsened {
			t.Fatalf("case %d: a row-id read of the top derived from the histogram-form bottom: %+v -> %+v", i, before, after)
		}
	}
}

// TestFillInRace races histogram reads, row-id reads and an Append on
// the vectors of one snapshot, all cached in the histogram form. Each
// vector is filled in once: every row-id reader of a vector gets the one
// bucketization its fill-in leader published, equal to the oracle's, and
// every histogram reader gets the vector's histograms. The append's
// version then answers like a problem rebuilt from the grown table.
func TestFillInRace(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	rng := rand.New(rand.NewSource(97))
	for round := 0; round < rounds; round++ {
		tab, hs, qi := randomProblemCase(rng)
		extra := randomRows(rng, tab.Schema, 3+rng.Intn(20))
		p := problemWithWorkers(t, cloneTable(tab), hs, qi, 2)
		snap := p.Snapshot()
		nodes := p.Space().All()
		hists, err := snap.BucketizeHistograms(nodes)
		if err != nil {
			t.Fatal(err)
		}
		const readers = 4
		got := make([][]*bucket.Bucketization, readers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < readers; r++ {
			got[r] = make([]*bucket.Bucketization, len(nodes))
			order := rng.Perm(len(nodes))
			wg.Add(2)
			go func(r int) {
				defer wg.Done()
				<-start
				for _, j := range order {
					bz, err := snap.Bucketize(nodes[j])
					if err != nil {
						t.Error(err)
						return
					}
					got[r][j] = bz
				}
			}(r)
			go func() {
				defer wg.Done()
				<-start
				for _, j := range order {
					bz, err := snap.bucketize(p.layout.all, nodes[j], false, false)
					if err != nil {
						t.Error(err)
						return
					}
					if len(bz.Buckets) != len(hists[j].Buckets) || bz.Size() != hists[j].Size() ||
						math.Float64bits(bz.MinEntropy()) != math.Float64bits(hists[j].MinEntropy()) {
						t.Errorf("node %v: a histogram read got %d buckets of %d rows", nodes[j], len(bz.Buckets), bz.Size())
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := p.Append(extra); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for j, node := range nodes {
			for r := 1; r < readers; r++ {
				if got[r][j] != got[0][j] {
					t.Fatalf("round %d node %v: row-id readers got different bucketizations", round, node)
				}
			}
			want, err := oracleBucketize(snap, node)
			if err != nil {
				t.Fatal(err)
			}
			oracle.RequireIdentical(t, want, got[0][j], fmt.Sprintf("round %d node %v", round, node))
		}
		grown := cloneTable(tab)
		for _, r := range extra {
			grown.MustAppend(r)
		}
		checkVersion(t, p.Snapshot(), problemWithWorkers(t, grown, hs, qi, 1), nodes, true)
	}
}

// TestColdReadsRaceHistogramPlans reads the cold vectors of one snapshot
// with their row ids while BucketizeHistograms and a search on the same
// snapshot cache them without row ids. A row-id read whose vector a
// histogram plan publishes after the read planned must fill its row ids
// in, never fail: every row-id reader of a vector gets one bucketization,
// equal to the oracle's, every histogram read is the oracle's histogram
// form, and the search answers as it does on a fresh problem.
func TestColdReadsRaceHistogramPlans(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	rng := rand.New(rand.NewSource(101))
	for round := 0; round < rounds; round++ {
		tab, hs, qi := randomProblemCase(rng)
		c, k := 0.5+0.1*float64(rng.Intn(5)), rng.Intn(3)
		p := problemWithWorkers(t, tab, hs, qi, 2)
		snap := p.Snapshot()
		nodes := p.Space().All()
		const readers = 3
		got := make([][]*bucket.Bucketization, readers)
		hists := make([][]*bucket.Bucketization, readers)
		var found []lattice.Node
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < readers; r++ {
			got[r] = make([]*bucket.Bucketization, len(nodes))
			hists[r] = make([]*bucket.Bucketization, len(nodes))
			order := rng.Perm(len(nodes))
			wg.Add(2)
			go func(r int) {
				defer wg.Done()
				<-start
				for _, j := range order {
					bz, err := snap.Bucketize(nodes[j])
					if err != nil {
						t.Error(err)
						return
					}
					got[r][j] = bz
				}
			}(r)
			go func(r int) {
				defer wg.Done()
				<-start
				for i := len(order) - 1; i >= 0; i-- {
					j := order[i]
					bzs, err := snap.BucketizeHistograms([]lattice.Node{nodes[j]})
					if err != nil {
						t.Error(err)
						return
					}
					hists[r][j] = bzs[0]
				}
			}(r)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var err error
			if found, _, err = snap.MinimalSafe(p.CKSafety(c, k)); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for j, node := range nodes {
			label := fmt.Sprintf("round %d node %v", round, node)
			want, err := oracleBucketize(snap, node)
			if err != nil {
				t.Fatal(err)
			}
			oracle.RequireIdentical(t, want, got[0][j], label)
			for r := 0; r < readers; r++ {
				if got[r][j] != got[0][j] {
					t.Fatalf("%s: row-id readers got different bucketizations", label)
				}
				if h := hists[r][j]; h.Buckets[0].Tuples == nil {
					requireHistogramForm(t, want, h, label)
				} else {
					oracle.RequireIdentical(t, want, h, label)
				}
			}
		}
		fresh := problemWithWorkers(t, tab, hs, qi, 1)
		want, _, err := fresh.MinimalSafe(fresh.CKSafety(c, k))
		if err != nil {
			t.Fatal(err)
		}
		if !sameNodeOrder(want, found) {
			t.Fatalf("round %d: the racing search found %v, a fresh problem %v", round, found, want)
		}
	}
}

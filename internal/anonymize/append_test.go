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
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataset/adult"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/table"
)

// TestAppendParitySearches is the append-parity acceptance property: for
// random tables and hierarchies, appending a suffix to a warm problem and
// then bucketizing/searching must be byte-identical — bucket keys, tuple
// order, histograms, search nodes and stats, disclosure values — to a
// problem built from scratch on the concatenated table, at worker budgets
// 1 and 4.
func TestAppendParitySearches(t *testing.T) {
	cases := 20
	if testing.Short() {
		cases = 6
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < cases; i++ {
		tab, hs, qi := randomProblemCase(rng)
		cut := 1 + rng.Intn(tab.Len()-1)
		base := table.New(tab.Schema)
		for _, r := range tab.Rows[:cut] {
			base.MustAppend(r)
		}
		extra := make([]table.Row, len(tab.Rows[cut:]))
		copy(extra, tab.Rows[cut:])
		c := []float64{0.4, 0.6, 0.8}[rng.Intn(3)]
		k := rng.Intn(3)
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("case %d cut %d (c=%v k=%d workers=%d)", i, cut, c, k, workers)

			appended := problemWithWorkers(t, base.Clone(), hs, qi, workers)
			// Warm the whole lattice before appending so the patch path is
			// what serves every post-append node.
			for _, node := range appended.Space().All() {
				if _, err := appended.Bucketize(node); err != nil {
					t.Fatalf("%s: warm %v: %v", label, node, err)
				}
			}
			res, err := appended.Append(extra)
			if err != nil {
				t.Fatalf("%s: append: %v", label, err)
			}
			if res.Version != 2 || res.Start != cut || res.Rows != tab.Len() || res.Appended != len(extra) {
				t.Fatalf("%s: append result %+v", label, res)
			}
			if appended.Version() != 2 || appended.Rows() != tab.Len() {
				t.Fatalf("%s: version/rows %d/%d after append", label, appended.Version(), appended.Rows())
			}

			rebuilt := problemWithWorkers(t, tab.Clone(), hs, qi, workers)

			// Node-by-node bucketization identity and disclosure parity.
			for _, node := range rebuilt.Space().All() {
				want, err := rebuilt.Bucketize(node)
				if err != nil {
					t.Fatalf("%s: rebuilt bucketize %v: %v", label, node, err)
				}
				got, err := appended.Bucketize(node)
				if err != nil {
					t.Fatalf("%s: appended bucketize %v: %v", label, node, err)
				}
				oracle.RequireIdentical(t, want, got, fmt.Sprintf("%s node %v", label, node))
				wd, err := core.MaxDisclosure(want, k)
				if err != nil {
					t.Fatalf("%s: disclosure %v: %v", label, node, err)
				}
				gd, err := core.MaxDisclosure(got, k)
				if err != nil {
					t.Fatalf("%s: disclosure %v: %v", label, node, err)
				}
				if wd != gd {
					t.Fatalf("%s: disclosure at %v: rebuilt %v, appended %v", label, node, wd, gd)
				}
			}

			// Search parity: nodes and stats for every search type.
			wn, ws, err := rebuilt.MinimalSafe(rebuilt.CKSafety(c, k))
			if err != nil {
				t.Fatalf("%s: rebuilt MinimalSafe: %v", label, err)
			}
			gn, gs, err := appended.MinimalSafe(appended.CKSafety(c, k))
			if err != nil {
				t.Fatalf("%s: appended MinimalSafe: %v", label, err)
			}
			if !reflect.DeepEqual(wn, gn) || ws != gs {
				t.Fatalf("%s: MinimalSafe mismatch: rebuilt %v %+v, appended %v %+v", label, wn, ws, gn, gs)
			}

			wn, ws, err = rebuilt.MinimalSafeIncognito(rebuilt.CKSafety(c, k))
			if err != nil {
				t.Fatalf("%s: rebuilt Incognito: %v", label, err)
			}
			gn, gs, err = appended.MinimalSafeIncognito(appended.CKSafety(c, k))
			if err != nil {
				t.Fatalf("%s: appended Incognito: %v", label, err)
			}
			if !reflect.DeepEqual(wn, gn) || ws != gs {
				t.Fatalf("%s: Incognito mismatch: rebuilt %v %+v, appended %v %+v", label, wn, ws, gn, gs)
			}

			wNode, wOK, wStats, err := rebuilt.ChainSearch(rebuilt.CKSafety(c, k))
			if err != nil {
				t.Fatalf("%s: rebuilt ChainSearch: %v", label, err)
			}
			gNode, gOK, gStats, err := appended.ChainSearch(appended.CKSafety(c, k))
			if err != nil {
				t.Fatalf("%s: appended ChainSearch: %v", label, err)
			}
			if wOK != gOK || !reflect.DeepEqual(wNode, gNode) || wStats != gStats {
				t.Fatalf("%s: ChainSearch mismatch: rebuilt %v/%v %+v, appended %v/%v %+v",
					label, wNode, wOK, wStats, gNode, gOK, gStats)
			}
		}
	}
}

// TestAppendParityLegacyPath runs the append-parity property against the
// legacy string-path bucketizer, now oracle.Bucketize: after a warm
// problem absorbs the second half of a table, every node's patched or
// re-derived bucketization must equal the oracle's on the whole table.
func TestAppendParityLegacyPath(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tab, hs, qi := randomProblemCase(rng)
	cut := tab.Len() / 2
	base := table.New(tab.Schema)
	for _, r := range tab.Rows[:cut] {
		base.MustAppend(r)
	}
	p, err := NewProblem(base.Clone(), hs, qi)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range p.Space().All() {
		if _, err := p.Bucketize(node); err != nil {
			t.Fatal(err)
		}
	}
	warm := p.CacheStats().Entries
	res, err := p.Append(tab.Rows[cut:])
	if err != nil {
		t.Fatal(err)
	}
	if res.PatchedNodes+res.InvalidatedNodes != warm {
		t.Fatalf("append result %+v, want %d warm entries accounted for", res, warm)
	}
	snap := p.Snapshot()
	if snap.Rows() != tab.Len() {
		t.Fatalf("appended problem has %d rows, want %d", snap.Rows(), tab.Len())
	}
	for _, node := range p.Space().All() {
		want, err := oracleBucketize(snap, node)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.Bucketize(node)
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, want, got, fmt.Sprintf("appended node %v", node))
	}
}

// TestSnapshotPinsVersionAcrossAppend pins the copy-on-write contract at
// the problem layer: a snapshot taken before an append keeps returning the
// pre-append partition and version while the problem itself moves on.
func TestSnapshotPinsVersionAcrossAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	tab, hs, qi := randomProblemCase(rng)
	cut := tab.Len() / 2
	base := table.New(tab.Schema)
	for _, r := range tab.Rows[:cut] {
		base.MustAppend(r)
	}
	p, err := NewProblem(base.Clone(), hs, qi)
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	node := p.Space().All()[0]
	before, err := snap.Bucketize(node)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append(tab.Rows[cut:]); err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 1 || snap.Rows() != cut {
		t.Fatalf("snapshot drifted to version %d rows %d", snap.Version(), snap.Rows())
	}
	after, err := snap.Bucketize(node)
	if err != nil {
		t.Fatal(err)
	}
	oracle.RequireIdentical(t, before, after, "pinned snapshot")
	if got := after.Size(); got != cut {
		t.Fatalf("pinned snapshot bucketizes %d tuples, want %d", got, cut)
	}
	now := p.Snapshot()
	if now.Version() != 2 || now.Rows() != tab.Len() {
		t.Fatalf("current snapshot at version %d rows %d", now.Version(), now.Rows())
	}
	cur, err := now.Bucketize(node)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Size() != tab.Len() {
		t.Fatalf("current snapshot bucketizes %d tuples, want %d", cur.Size(), tab.Len())
	}
}

// TestAppendRejectsUncoveredValue checks atomicity: a batch containing a
// value the hierarchy cannot generalize is rejected whole, leaving
// version, rows and warm state untouched.
func TestAppendRejectsUncoveredValue(t *testing.T) {
	s, err := table.NewSchema([]table.Attribute{
		{Name: "City", Kind: table.Categorical, Domain: []string{"a", "b", "c"}},
		{Name: "sens", Kind: table.Categorical, Domain: []string{"s0", "s1"}},
	}, "sens")
	if err != nil {
		t.Fatal(err)
	}
	// The hierarchy covers only a and b; c is schema-legal but cannot be
	// generalized.
	hs := hierarchy.Set{"City": hierarchy.NewSuppression("City", []string{"a", "b"})}
	tab := table.New(s)
	tab.MustAppend(table.Row{"a", "s0"})
	tab.MustAppend(table.Row{"b", "s1"})
	p, err := NewProblem(tab, hs, []string{"City"})
	if err != nil {
		t.Fatal(err)
	}
	node := p.Space().All()[0]
	if _, err := p.Bucketize(node); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append([]table.Row{{"c", "s0"}}); err == nil {
		t.Fatal("append accepted a value outside the hierarchy")
	}
	if p.Version() != 1 || p.Rows() != 2 {
		t.Fatalf("rejected append mutated the problem: version %d rows %d", p.Version(), p.Rows())
	}
	if _, err := p.Append([]table.Row{{"bogus", "s0"}}); err == nil {
		t.Fatal("append accepted a schema-invalid value")
	}
	// A valid append still works afterwards and bumps the version.
	res, err := p.Append([]table.Row{{"a", "s1"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Rows != 3 || res.PatchedNodes != 1 {
		t.Fatalf("append result %+v", res)
	}
}

// TestConcurrentAppendAndSearch drives appends while snapshot-pinned
// searches and bucketizations run on other goroutines; the race detector
// proves the copy-on-write versioning, and every observed bucketization
// must cover exactly one of the row counts a version ever had.
func TestConcurrentAppendAndSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tab, hs, qi := randomProblemCase(rng)
	base := table.New(tab.Schema)
	for _, r := range tab.Rows {
		base.MustAppend(r)
	}
	p := problemWithWorkers(t, base, hs, qi, 2)
	const rounds = 8
	batch := make([]table.Row, 5)
	for i := range batch {
		batch[i] = tab.Rows[i%tab.Len()]
	}
	valid := map[int]bool{}
	for v := 0; v <= rounds; v++ {
		valid[tab.Len()+v*len(batch)] = true
	}
	done := make(chan error, 3)
	go func() {
		for i := 0; i < rounds; i++ {
			if _, err := p.Append(batch); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for g := 0; g < 2; g++ {
		go func() {
			for i := 0; i < 6; i++ {
				snap := p.Snapshot()
				if _, _, err := snap.MinimalSafe(p.CKSafety(0.8, 1)); err != nil {
					done <- err
					return
				}
				for _, node := range p.Space().All() {
					bz, err := snap.Bucketize(node)
					if err != nil {
						done <- err
						return
					}
					if !valid[bz.Size()] {
						done <- fmt.Errorf("bucketization covers %d rows, not any version's count", bz.Size())
						return
					}
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Rows(); got != tab.Len()+rounds*len(batch) {
		t.Fatalf("final rows %d, want %d", got, tab.Len()+rounds*len(batch))
	}
}

// TestAppendCarriesWhileReadersPublish: readers publish class indexes,
// disclosure series and MinEntropy on version v's bucketizations while
// Problem.Append carries v's indexes into v+1. A carry may see a node's
// index or not yet, but every index either version holds is the one a
// class scan of its buckets publishes, and every node answers what a
// problem rebuilt from the version's rows answers.
func TestAppendCarriesWhileReadersPublish(t *testing.T) {
	tab := adult.MustGenerate(adult.Config{Seed: 3, N: 1500})
	const baseRows, batchRows = 1200, 50
	rebuild := func(rows int) *Problem {
		grown := table.New(tab.Schema)
		for _, r := range tab.Rows[:rows] {
			grown.MustAppend(r)
		}
		p, err := NewProblem(grown, adult.Hierarchies(), adult.QuasiIdentifiers())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := rebuild(baseRows)
	nodes := p.Space().All()
	if err := p.Snapshot().MaterializeNodes(nodes); err != nil {
		t.Fatal(err)
	}
	want := rebuild(baseRows)
	for start := baseRows; start < tab.Len(); start += batchRows {
		snap := p.Snapshot()
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range nodes {
					bz, err := snap.Bucketize(nodes[(i*7+g*31)%len(nodes)])
					if err == nil {
						_, err = p.Engine().MaxDisclosure(bz, 1+g)
					}
					if err != nil {
						errs <- err
						return
					}
					bz.MinEntropy()
				}
			}()
		}
		if _, err := p.Append(tab.Rows[start : start+batchRows]); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		checkVersion(t, snap, want, nodes, true)
		want = rebuild(start + batchRows)
		// The next version is checked without a disclosure call, which
		// would index every node before the next round's carry.
		checkVersion(t, p.Snapshot(), want, nodes, false)
	}
}

// TestAppendReadBuildsOnlyChangedRows: after a 64-row Problem.Append
// into a problem whose 72 nodes are indexed and hold their k = 4 rows,
// each node's next Series(4) reads its carried index and builds rows
// only for the classes whose first bucket holds none: a bucket the
// append rebuilt or added, or an untouched one that now heads its class.
// Its misses equal that count, its hits the other classes, and its
// values equal a rebuilt problem's bit for bit.
func TestAppendReadBuildsOnlyChangedRows(t *testing.T) {
	const baseRows, batchRows, k = 2000, 64, 4
	tab := adult.MustGenerate(adult.Config{Seed: 5, N: baseRows + batchRows})
	rebuild := func(rows int) *Problem {
		grown := table.New(tab.Schema)
		for _, r := range tab.Rows[:rows] {
			grown.MustAppend(r)
		}
		p, err := NewProblem(grown, adult.Hierarchies(), adult.QuasiIdentifiers())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := rebuild(baseRows)
	nodes := p.Space().All()
	for _, node := range nodes {
		bz, err := p.Bucketize(node)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Engine().Series(bz, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Append(tab.Rows[baseRows:]); err != nil {
		t.Fatal(err)
	}
	want := rebuild(len(tab.Rows))
	fresh := core.NewEngine()
	built, classes := 0, 0
	for _, node := range nodes {
		bz, err := p.Bucketize(node)
		if err != nil {
			t.Fatal(err)
		}
		if !bz.Indexed() {
			t.Fatalf("node %v: the append did not carry its class index", node)
		}
		first, _, _ := classArrays(bz)
		missing := 0
		for _, i := range first {
			if bz.Buckets[i].M1Row(k+2) == nil {
				missing++
			}
		}
		before := p.Engine().Stats()
		got, err := p.Engine().Series(bz, k)
		if err != nil {
			t.Fatal(err)
		}
		after := p.Engine().Stats()
		if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != uint64(missing) || hits != uint64(len(first)-missing) {
			t.Fatalf("node %v: %d misses and %d hits over %d classes, %d of them without a row", node, misses, hits, len(first), missing)
		}
		built += missing
		classes += len(first)
		ref, err := want.Bucketize(node)
		if err != nil {
			t.Fatal(err)
		}
		wd, err := fresh.Series(ref, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(f64bits(got), f64bits(wd)) {
			t.Fatalf("node %v: series %v, rebuild %v", node, got, wd)
		}
	}
	if built == 0 || built >= classes {
		t.Fatalf("the append left %d of %d classes to build; the test needs both kinds", built, classes)
	}
	t.Logf("%d of %d classes built after the append", built, classes)
}

// f64bits returns the bit patterns of xs, so slices.Equal compares floats
// bit for bit.
func f64bits(xs []float64) []uint64 {
	bits := make([]uint64, len(xs))
	for i, x := range xs {
		bits[i] = math.Float64bits(x)
	}
	return bits
}

// checkVersion compares every node of snap with want's, a problem rebuilt
// from the same rows: an index snap holds with what a class scan of its
// buckets publishes, Size and MinEntropy, and with disclose, the maximum
// disclosure at k <= 2 on the problem's engine with a fresh engine's.
func checkVersion(t *testing.T, snap *Snapshot, want *Problem, nodes []lattice.Node, disclose bool) {
	t.Helper()
	fresh := core.NewEngine()
	for _, node := range nodes {
		got, err := snap.Bucketize(node)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := want.Bucketize(node)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("version %d node %v", snap.Version(), node)
		if got.Indexed() {
			gotFirst, gotHash, gotOf := classArrays(got)
			first, hash, of := classArrays(&bucket.Bucketization{Buckets: got.Buckets})
			if !slices.Equal(gotFirst, first) || !slices.Equal(gotHash, hash) || !slices.Equal(gotOf, of) {
				t.Fatalf("%s: index first %v hash %x of %v, a class scan gives %v %x %v", label, gotFirst, gotHash, gotOf, first, hash, of)
			}
		}
		if got.Size() != ref.Size() || math.Float64bits(got.MinEntropy()) != math.Float64bits(ref.MinEntropy()) {
			t.Fatalf("%s: Size %d MinEntropy %v, rebuild %d and %v", label, got.Size(), got.MinEntropy(), ref.Size(), ref.MinEntropy())
		}
		for k := 0; disclose && k <= 2; k++ {
			gd, err := snap.Problem().Engine().MaxDisclosure(got, k)
			if err != nil {
				t.Fatal(err)
			}
			wd, err := fresh.MaxDisclosure(ref, k)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(gd) != math.Float64bits(wd) {
				t.Fatalf("%s k=%d: disclosure %v, rebuild %v", label, k, gd, wd)
			}
		}
	}
}

// classArrays runs a class scan over bz and returns each class's first
// bucket's position and hash, and the class of every bucket.
func classArrays(bz *bucket.Bucketization) (first []int, hash []uint64, of []int32) {
	var scan bucket.ClassScan
	scan.Start(bz)
	defer scan.Close()
	for scan.Next() {
		first = append(first, slices.Index(bz.Buckets, scan.Bucket()))
		hash = append(hash, scan.Bucket().HistogramHash())
	}
	return first, hash, slices.Clone(scan.ClassOf())
}

// TestAppendResultNewCodes checks the per-attribute new-code accounting.
func TestAppendResultNewCodes(t *testing.T) {
	s, err := table.NewSchema([]table.Attribute{
		{Name: "Age", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "sens", Kind: table.Categorical, Domain: []string{"s0", "s1", "s2"}},
	}, "sens")
	if err != nil {
		t.Fatal(err)
	}
	hs := hierarchy.Set{"Age": hierarchy.MustInterval("Age", []int{1, 10, 0})}
	tab := table.New(s)
	tab.MustAppend(table.Row{"11", "s0"})
	tab.MustAppend(table.Row{"12", "s0"})
	p, err := NewProblem(tab, hs, []string{"Age"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Append([]table.Row{{"11", "s1"}, {"37", "s2"}, {"37", "s1"}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"Age": 1, "sens": 2}
	if !reflect.DeepEqual(res.NewCodes, want) {
		t.Fatalf("NewCodes %v, want %v", res.NewCodes, want)
	}
}

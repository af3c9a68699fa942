package anonymize

import (
	"testing"

	"ckprivacy/internal/core"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/table"
	"ckprivacy/internal/utility"
)

// hospital builds the paper's Figure 1 table with Zip/Age/Sex hierarchies
// (3·3·2 = 18-node lattice).
func hospital(t *testing.T) *Problem {
	t.Helper()
	s, err := table.NewSchema([]table.Attribute{
		{Name: "Zip", Kind: table.Numeric, Min: 0, Max: 99999},
		{Name: "Age", Kind: table.Numeric, Min: 0, Max: 120},
		{Name: "Sex", Kind: table.Categorical, Domain: []string{"M", "F"}},
		{Name: "Disease", Kind: table.Categorical, Domain: []string{
			"flu", "lung-cancer", "mumps", "breast-cancer", "ovarian-cancer", "heart-disease",
		}},
	}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	tab := table.New(s)
	for _, r := range []table.Row{
		{"14850", "23", "M", "flu"},
		{"14850", "24", "M", "flu"},
		{"14850", "25", "M", "lung-cancer"},
		{"14850", "27", "M", "lung-cancer"},
		{"14853", "29", "M", "mumps"},
		{"14850", "21", "F", "flu"},
		{"14850", "22", "F", "flu"},
		{"14853", "24", "F", "breast-cancer"},
		{"14853", "26", "F", "ovarian-cancer"},
		{"14853", "28", "F", "heart-disease"},
	} {
		tab.MustAppend(r)
	}
	hs := hierarchy.Set{
		"Zip": hierarchy.MustInterval("Zip", []int{1, 10, 0}),
		"Age": hierarchy.MustInterval("Age", []int{1, 10, 0}),
		"Sex": hierarchy.NewSuppression("Sex", []string{"M", "F"}),
	}
	p, err := NewProblem(tab, hs, []string{"Zip", "Age", "Sex"})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemValidation(t *testing.T) {
	p := hospital(t)
	if p.Space().Size() != 18 {
		t.Errorf("lattice size = %d, want 18", p.Space().Size())
	}
	if _, err := NewProblem(nil, p.Hierarchies, p.QI); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := NewProblem(p.Table, p.Hierarchies, nil); err == nil {
		t.Error("empty QI accepted")
	}
	if _, err := NewProblem(p.Table, p.Hierarchies, []string{"Nope"}); err == nil {
		t.Error("unknown QI accepted")
	}
	if _, err := NewProblem(p.Table, p.Hierarchies, []string{"Disease"}); err == nil {
		t.Error("sensitive attribute as QI accepted")
	}
	if _, err := NewProblem(p.Table, hierarchy.Set{}, []string{"Zip"}); err == nil {
		t.Error("missing hierarchy accepted")
	}
}

func TestBucketizePaperNode(t *testing.T) {
	p := hospital(t)
	// Zip→width 10, Age→width 10, Sex kept: the paper's Figure 2/3
	// partition (two buckets of five).
	bz, err := p.Bucketize(lattice.Node{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(bz.Buckets) != 2 || bz.MinSize() != 5 {
		t.Fatalf("buckets = %d, min size = %d", len(bz.Buckets), bz.MinSize())
	}
	// Fully generalized: one bucket of ten.
	top, err := p.Bucketize(p.Space().Top())
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Buckets) != 1 || top.Buckets[0].Size() != 10 {
		t.Errorf("top bucketization = %d buckets", len(top.Buckets))
	}
	if _, err := p.Bucketize(lattice.Node{9, 9, 9}); err == nil {
		t.Error("out-of-lattice node accepted")
	}
	entries := p.CacheStats().Entries
	if err := p.Snapshot().MaterializeNodes([]lattice.Node{{0, 0, 0}, {1, 1}}); err == nil || p.CacheStats().Entries != entries {
		t.Errorf("MaterializeNodes with an out-of-lattice node: err %v, %d -> %d entries", err, entries, p.CacheStats().Entries)
	}
	// Cache returns the identical value.
	again, err := p.Bucketize(lattice.Node{1, 1, 0})
	if err != nil || again != bz {
		t.Error("cache miss on repeated node")
	}
}

func TestBucketizeSubset(t *testing.T) {
	p := hospital(t)
	// Subset {Sex} at level 0: grouping by sex alone → 2 buckets of 5,
	// exactly like the full node with Zip and Age suppressed.
	snap := p.Snapshot()
	bz, err := snap.BucketizeSubset([]int{2}, lattice.Node{0})
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Bucketize(lattice.Node{2, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(bz.Buckets) != len(full.Buckets) {
		t.Errorf("subset buckets %d != full buckets %d", len(bz.Buckets), len(full.Buckets))
	}
	if bz != full {
		t.Error("subset node and the full node it induces are cached apart")
	}
	if _, err := snap.BucketizeSubset([]int{0, 1}, lattice.Node{0}); err == nil {
		t.Error("mismatched subset/node accepted")
	}
	if _, err := snap.BucketizeSubset([]int{7}, lattice.Node{0}); err == nil {
		t.Error("out-of-range subset accepted")
	}
	// A level outside its dimension's hierarchy is an error, never a
	// panic or a plan: Zip has 3 levels, Sex 2.
	for _, bad := range []struct {
		subset []int
		node   lattice.Node
	}{
		{[]int{0}, lattice.Node{-1}},
		{[]int{0}, lattice.Node{99}},
		{[]int{0, 2}, lattice.Node{1, 2}},
	} {
		if _, err := snap.BucketizeSubset(bad.subset, bad.node); err == nil {
			t.Errorf("subset %v at levels %v accepted", bad.subset, bad.node)
		}
	}
	if ss := p.SweepStats(); ss.PlannedNodes != 1 {
		t.Errorf("planned %d nodes, want 1: rejected requests must not reach the planner", ss.PlannedNodes)
	}
}

func TestMinimalSafeMatchesIncognitoAndNaive(t *testing.T) {
	p := hospital(t)
	engine := core.NewEngine()
	criteria := []privacy.Criterion{
		privacy.KAnonymity{K: 5},
		privacy.KAnonymity{K: 2},
		privacy.DistinctLDiversity{L: 3},
		privacy.CKSafety{C: 0.7, K: 1, Engine: engine},
		privacy.CKSafety{C: 0.99, K: 2, Engine: engine},
	}
	for _, crit := range criteria {
		t.Run(crit.Name(), func(t *testing.T) {
			fast, _, err := p.MinimalSafe(crit)
			if err != nil {
				t.Fatal(err)
			}
			inc, _, err := p.MinimalSafeIncognito(crit)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := oracle.NaiveMinimal(p.Space(), oraclePred(p.Snapshot(), crit))
			if err != nil {
				t.Fatal(err)
			}
			if !sameNodes(fast, naive) {
				t.Errorf("MinimalSafe %v != naive %v", fast, naive)
			}
			if !sameNodes(inc, naive) {
				t.Errorf("Incognito %v != naive %v", inc, naive)
			}
		})
	}
}

func TestMinimalSafeCKSafetyHospital(t *testing.T) {
	p := hospital(t)
	// (0.7, 1)-safety: the Figure 2/3 bucketization (node [1 1 0]) has max
	// disclosure 2/3 < 0.7, so a node at or below it must be minimal-safe.
	crit := privacy.CKSafety{C: 0.7, K: 1, Engine: core.NewEngine()}
	minimal, _, err := p.MinimalSafe(crit)
	if err != nil {
		t.Fatal(err)
	}
	if len(minimal) == 0 {
		t.Fatal("no minimal safe nodes")
	}
	covered := false
	for _, n := range minimal {
		if lattice.Leq(n, lattice.Node{1, 1, 0}) {
			covered = true
		}
	}
	if !covered {
		t.Errorf("paper node [1 1 0] not covered by minimal set %v", minimal)
	}
	// Every minimal node satisfies, every child of it fails.
	pred := oraclePred(p.Snapshot(), crit)
	for _, n := range minimal {
		ok, err := pred(n)
		if err != nil || !ok {
			t.Errorf("minimal node %v does not satisfy: %v %v", n, ok, err)
		}
		for _, c := range p.Space().Children(n) {
			ok, err := pred(c)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Errorf("child %v of minimal node %v satisfies", c, n)
			}
		}
	}
}

func TestChainSearch(t *testing.T) {
	p := hospital(t)
	crit := privacy.KAnonymity{K: 5}
	node, ok, stats, err := p.ChainSearch(crit)
	if err != nil || !ok {
		t.Fatalf("ChainSearch: ok=%v err=%v", ok, err)
	}
	// The found node satisfies; its chain predecessor must not.
	bz, err := p.Bucketize(node)
	if err != nil {
		t.Fatal(err)
	}
	if sat, _ := crit.Satisfied(bz); !sat {
		t.Errorf("chain result %v unsafe", node)
	}
	if stats.Evaluated > 6 {
		t.Errorf("chain search used %d evaluations for an 8-node chain", stats.Evaluated)
	}
	// An unsatisfiable criterion returns ok=false.
	_, ok, _, err = p.ChainSearch(privacy.KAnonymity{K: 100})
	if err != nil || ok {
		t.Errorf("impossible criterion: ok=%v err=%v", ok, err)
	}
}

func TestBestByUtility(t *testing.T) {
	p := hospital(t)
	crit := privacy.KAnonymity{K: 2}
	minimal, _, err := p.MinimalSafe(crit)
	if err != nil {
		t.Fatal(err)
	}
	idx, bz, err := p.BestByUtility(minimal, utility.Discernibility{})
	if err != nil {
		t.Fatal(err)
	}
	if idx < 0 || idx >= len(minimal) || bz == nil {
		t.Fatalf("BestByUtility = %d, %v", idx, bz)
	}
	// The returned bucketization must beat-or-tie every other candidate.
	for _, n := range minimal {
		other, err := p.Bucketize(n)
		if err != nil {
			t.Fatal(err)
		}
		if (utility.Discernibility{}).Score(other) > (utility.Discernibility{}).Score(bz) {
			t.Errorf("candidate %v beats the chosen one", n)
		}
	}
	if _, _, err := p.BestByUtility(nil, utility.Discernibility{}); err == nil {
		t.Error("empty candidates accepted")
	}
}

func sameNodes(a, b []lattice.Node) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[string]bool{}
	for _, n := range a {
		set[n.Key()] = true
	}
	for _, n := range b {
		if !set[n.Key()] {
			return false
		}
	}
	return true
}

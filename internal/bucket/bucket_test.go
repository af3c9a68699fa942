package bucket_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/table"
)

// paperTable builds the paper's Figure 1 original table.
func paperTable(t *testing.T) *table.Table {
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
	rows := []table.Row{
		{"14850", "23", "M", "flu"},            // Bob
		{"14850", "24", "M", "flu"},            // Charlie
		{"14850", "25", "M", "lung-cancer"},    // Dave
		{"14850", "27", "M", "lung-cancer"},    // Ed
		{"14853", "29", "M", "mumps"},          // Frank
		{"14850", "21", "F", "flu"},            // Gloria
		{"14850", "22", "F", "flu"},            // Hannah
		{"14853", "24", "F", "breast-cancer"},  // Irma
		{"14853", "26", "F", "ovarian-cancer"}, // Jessica
		{"14853", "28", "F", "heart-disease"},  // Karen
	}
	for _, r := range rows {
		tab.MustAppend(r)
	}
	return tab
}

func paperHierarchies() hierarchy.Set {
	return hierarchy.Set{
		"Zip": hierarchy.MustInterval("Zip", []int{1, 10, 0}),
		"Age": hierarchy.MustInterval("Age", []int{1, 10, 0}),
		"Sex": hierarchy.NewSuppression("Sex", []string{"M", "F"}),
	}
}

func TestFromValues(t *testing.T) {
	bz := bucket.FromValues(
		[]string{"flu", "flu", "lung-cancer", "lung-cancer", "mumps"},
		[]string{"flu", "flu", "breast-cancer", "ovarian-cancer", "heart-disease"},
	)
	if len(bz.Buckets) != 2 || bz.Size() != 10 {
		t.Fatalf("buckets/size = %d/%d", len(bz.Buckets), bz.Size())
	}
	b := bz.Buckets[0]
	if b.Size() != 5 || b.Count("flu") != 2 || b.Count("mumps") != 1 || b.Count("nope") != 0 {
		t.Errorf("bucket 0 counts wrong: %v", b.Freq())
	}
	if b.TopValue() != "flu" && b.TopValue() != "lung-cancer" {
		t.Errorf("TopValue = %q", b.TopValue())
	}
	if b.TopCount() != 2 || b.Distinct() != 3 {
		t.Errorf("TopCount/Distinct = %d/%d", b.TopCount(), b.Distinct())
	}
	// flu and lung-cancer tie at 2; SortCounts breaks ties by value, so
	// flu < lung-cancer comes first.
	if b.Freq()[0].Value != "flu" {
		t.Errorf("tie order: %v", b.Freq())
	}
	if got := b.Signature(); got != "2,2,1" {
		t.Errorf("Signature = %q", got)
	}
	wantHist := []int{2, 2, 1}
	for i, h := range b.Histogram() {
		if h != wantHist[i] {
			t.Errorf("Histogram = %v", b.Histogram())
		}
	}
	if b.PrefixSum(0) != 0 || b.PrefixSum(1) != 2 || b.PrefixSum(2) != 4 || b.PrefixSum(3) != 5 || b.PrefixSum(99) != 5 {
		t.Errorf("PrefixSum wrong: %d %d %d", b.PrefixSum(1), b.PrefixSum(2), b.PrefixSum(3))
	}
	// Person identities are assigned sequentially across buckets.
	for id, want := range map[int]int{0: 0, 7: 1, 99: -1} {
		if got, err := bz.BucketOf(id); got != want || err != nil {
			t.Errorf("BucketOf(%d) = %d, %v; want %d", id, got, err, want)
		}
	}
}

func TestFromGeneralizationPaperExample(t *testing.T) {
	tab := paperTable(t)
	// Zip generalized to width 10 ("1485*"), Age to width 10 ("2*"), Sex
	// kept: exactly the paper's Figure 2/3 partition into two buckets of 5.
	bz, err := bucket.Bucketize(tab, paperHierarchies(), bucket.Levels{"Zip": 1, "Age": 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(bz.Buckets) != 2 {
		t.Fatalf("got %d buckets, want 2: %+v", len(bz.Buckets), bz.Buckets)
	}
	for _, b := range bz.Buckets {
		if b.Size() != 5 {
			t.Errorf("bucket %q size = %d", b.Key, b.Size())
		}
	}
	// The male bucket has histogram {flu:2, lung:2, mumps:1}.
	var male *bucket.Bucket
	for _, b := range bz.Buckets {
		if b.Count("mumps") > 0 {
			male = b
		}
	}
	if male == nil || male.Signature() != "2,2,1" {
		t.Fatalf("male bucket = %+v", male)
	}
	// Suppressing sex merges the two buckets.
	bz2, err := bucket.Bucketize(tab, paperHierarchies(), bucket.Levels{"Zip": 1, "Age": 1, "Sex": 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(bz2.Buckets) != 1 || bz2.Buckets[0].Size() != 10 {
		t.Fatalf("suppressed-sex buckets = %d", len(bz2.Buckets))
	}
	if bz2.Buckets[0].Count("flu") != 4 {
		t.Errorf("merged flu count = %d", bz2.Buckets[0].Count("flu"))
	}
}

// TestFromGeneralizationErrors checks that the production one-shot
// bucketizer and the oracle reject the same bad inputs.
func TestFromGeneralizationErrors(t *testing.T) {
	tab := paperTable(t)
	for path, bucketize := range map[string]func(*table.Table, hierarchy.Set, bucket.Levels) (*bucket.Bucketization, error){
		"production": bucket.Bucketize,
		"oracle":     oracle.Bucketize,
	} {
		if _, err := bucketize(tab, hierarchy.Set{}, bucket.Levels{"Zip": 1}); err == nil {
			t.Errorf("%s: missing hierarchy accepted", path)
		}
		if _, err := bucketize(tab, paperHierarchies(), bucket.Levels{"Zip": 9}); err == nil {
			t.Errorf("%s: bad level accepted", path)
		}
		// Level 0 on everything: one bucket per distinct QI combination.
		bz, err := bucketize(tab, paperHierarchies(), bucket.Levels{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(bz.Buckets) != 10 {
			t.Errorf("%s: ground partition has %d buckets, want 10", path, len(bz.Buckets))
		}
	}
}

func TestMerge(t *testing.T) {
	bz := bucket.FromValues([]string{"a", "a"}, []string{"b"}, []string{"c"})
	m, err := bz.Merge(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Buckets) != 2 {
		t.Fatalf("merged buckets = %d", len(m.Buckets))
	}
	var merged *bucket.Bucket
	for _, b := range m.Buckets {
		if b.Size() == 3 {
			merged = b
		}
	}
	if merged == nil || merged.Count("a") != 2 || merged.Count("c") != 1 {
		t.Fatalf("merged bucket wrong: %+v", merged)
	}
	// Original untouched.
	if len(bz.Buckets) != 3 {
		t.Error("Merge mutated the receiver")
	}
	if _, err := bz.Merge(1, 1); err == nil {
		t.Error("self-merge accepted")
	}
	if _, err := bz.Merge(0, 9); err == nil {
		t.Error("out-of-range merge accepted")
	}
	// Argument order must not matter.
	m2, err := bz.Merge(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Size() != bz.Size() {
		t.Error("reversed merge lost tuples")
	}
}

func TestEntropy(t *testing.T) {
	b := bucket.FromValues([]string{"a", "a", "b"}).Buckets[0]
	want := -(2.0/3.0)*math.Log(2.0/3.0) - (1.0/3.0)*math.Log(1.0/3.0)
	if got := b.Entropy(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Entropy = %v, want %v", got, want)
	}
	u := bucket.FromValues([]string{"a", "b", "c", "d"}).Buckets[0]
	if got := u.Entropy(); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Errorf("uniform entropy = %v, want ln 4", got)
	}
	one := bucket.FromValues([]string{"a", "a"}).Buckets[0]
	if got := one.Entropy(); got != 0 {
		t.Errorf("degenerate entropy = %v", got)
	}
}

func TestBucketizationStats(t *testing.T) {
	bz := bucket.FromValues(
		[]string{"a", "a", "b", "c"}, // entropy ln-ish, top 1/2
		[]string{"a", "a", "a"},      // entropy 0, top 1
	)
	if got := bz.MinEntropy(); got != 0 {
		t.Errorf("MinEntropy = %v", got)
	}
	if got := bz.MinSize(); got != 3 {
		t.Errorf("MinSize = %d", got)
	}
	if got := bz.MinDistinct(); got != 1 {
		t.Errorf("MinDistinct = %d", got)
	}
	if got := bz.MaxTopFraction(); got != 1.0 {
		t.Errorf("MaxTopFraction = %v", got)
	}
	empty := &bucket.Bucketization{}
	if empty.MinEntropy() != 0 || empty.MinSize() != 0 || empty.MinDistinct() != 0 {
		t.Error("empty bucketization stats not zero")
	}
	// An empty bucket adds no candidate to the top fraction.
	withEmpty := bucket.FromValues([]string{"a", "a", "b", "c"}, []string{})
	if got := withEmpty.MaxTopFraction(); got != 0.5 {
		t.Errorf("MaxTopFraction with an empty bucket = %v, want 0.5", got)
	}

	// MinEntropy is the per-bucket minimum, cached on first use: the same
	// bits before and after the bucketization is indexed.
	cached := bucket.FromValues(
		[]string{"a", "b", "b", "c"}, []string{"x", "y", "y", "z"}, []string{"a", "a", "b"},
		[]string{"b", "c", "c", "d"}, []string{"p", "p", "q"}, []string{"a", "b", "c", "d", "e"},
	)
	want := math.Inf(1)
	for _, b := range cached.Buckets {
		want = math.Min(want, b.Entropy())
	}
	if got := cached.MinEntropy(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("MinEntropy = %v, want the per-bucket minimum %v", got, want)
	}
	var scan bucket.ClassScan
	scan.Start(cached)
	for scan.Next() {
	}
	scan.Close()
	if got := cached.MinEntropy(); !cached.Indexed() || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("MinEntropy after indexing = %v (indexed: %v), want %v", got, cached.Indexed(), want)
	}
}

func TestPublishPreservesMultisets(t *testing.T) {
	tab := paperTable(t)
	bz, err := bucket.Bucketize(tab, paperHierarchies(), bucket.Levels{"Zip": 1, "Age": 1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := bz.Publish(rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("published %d rows", len(rows))
	}
	// Per bucket, the multiset of sensitive values must be preserved.
	got := map[string][]string{}
	for _, r := range rows {
		got[r[0]] = append(got[r[0]], r[len(r)-1])
	}
	for _, b := range bz.Buckets {
		want := []string{}
		for _, id := range b.Tuples {
			want = append(want, tab.SensitiveValue(id))
		}
		g := got[b.Key]
		sort.Strings(want)
		sort.Strings(g)
		if len(g) != len(want) {
			t.Fatalf("bucket %q: %d rows, want %d", b.Key, len(g), len(want))
		}
		for i := range g {
			if g[i] != want[i] {
				t.Fatalf("bucket %q multiset changed: %v vs %v", b.Key, g, want)
			}
		}
	}
	if _, err := bucket.FromValues([]string{"a"}).Publish(rand.New(rand.NewSource(1))); err == nil {
		t.Error("Publish without source accepted")
	}
}

// TestMergePreservesHistogramMass property-checks that merging buckets
// preserves the overall sensitive-value counts and total size.
func TestMergePreservesHistogramMass(t *testing.T) {
	f := func(raw []uint8, pick uint8) bool {
		if len(raw) < 2 {
			return true
		}
		vals := []string{"a", "b", "c", "d"}
		var g1, g2, g3 []string
		for i, r := range raw {
			v := vals[int(r)%len(vals)]
			switch i % 3 {
			case 0:
				g1 = append(g1, v)
			case 1:
				g2 = append(g2, v)
			default:
				g3 = append(g3, v)
			}
		}
		if len(g1) == 0 || len(g2) == 0 || len(g3) == 0 {
			return true
		}
		bz := bucket.FromValues(g1, g2, g3)
		i := int(pick) % 3
		j := (i + 1) % 3
		m, err := bz.Merge(i, j)
		if err != nil {
			return false
		}
		if m.Size() != bz.Size() || len(m.Buckets) != 2 {
			return false
		}
		for _, v := range vals {
			before, after := 0, 0
			for _, b := range bz.Buckets {
				before += b.Count(v)
			}
			for _, b := range m.Buckets {
				after += b.Count(v)
			}
			if before != after {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramSorted property-checks the decreasing-order invariant that
// the MINIMIZE1 closed form depends on.
func TestHistogramSorted(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]string, len(raw))
		for i, r := range raw {
			vals[i] = string(rune('a' + r%6))
		}
		b := bucket.FromValues(vals).Buckets[0]
		h := b.Histogram()
		total := 0
		for i, c := range h {
			total += c
			if i > 0 && h[i-1] < c {
				return false
			}
		}
		return total == b.Size() && b.PrefixSum(len(h)) == b.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

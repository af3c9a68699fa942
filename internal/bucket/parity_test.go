package bucket_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/table"
)

// This file is the randomized parity harness for the encoded path: random
// tables, random hierarchies, random level vectors — the encoded scan and
// the incremental coarsening derivation must be byte-identical to the
// oracle.Bucketize reference (same bucket keys, same tuple sets and orders,
// same histograms).

// randNested builds a random levelled hierarchy over domain with 1–3
// levels above identity, nested by construction (each level coarsens the
// previous level's groups, the top level possibly short of "*").
func randNested(rng *rand.Rand, name string, domain []string) hierarchy.Hierarchy {
	nLevels := 1 + rng.Intn(3)
	maps := make([]map[string]string, 0, nLevels)
	cur := make(map[string]string, len(domain)) // value -> current-level label
	for _, v := range domain {
		cur[v] = v
	}
	for l := 0; l < nLevels; l++ {
		labels := make(map[string]string) // current label -> next label
		next := make(map[string]string, len(domain))
		for _, v := range domain {
			lbl, ok := labels[cur[v]]
			if !ok {
				lbl = fmt.Sprintf("L%d.g%d", l, rng.Intn(2+len(domain)/2))
				labels[cur[v]] = lbl
			}
			next[v] = lbl
		}
		maps = append(maps, next)
		cur = next
	}
	return hierarchy.MustLevelled(name, domain, maps)
}

// randCase draws one random table + hierarchy set.
func randCase(rng *rand.Rand) (*table.Table, hierarchy.Set) {
	nQI := 1 + rng.Intn(4)
	attrs := make([]table.Attribute, 0, nQI+1)
	hs := hierarchy.Set{}
	intervalWidths := [][]int{{1, 2, 4, 0}, {1, 5, 25}, {1, 3, 9, 0}, {1, 10, 0}}
	for i := 0; i < nQI; i++ {
		name := fmt.Sprintf("q%d", i)
		if rng.Intn(2) == 0 {
			attrs = append(attrs, table.Attribute{Name: name, Kind: table.Numeric, Min: 0, Max: 99})
			hs[name] = hierarchy.MustInterval(name, intervalWidths[rng.Intn(len(intervalWidths))])
		} else {
			d := 2 + rng.Intn(7)
			domain := make([]string, d)
			for j := range domain {
				domain[j] = fmt.Sprintf("c%d", j)
			}
			attrs = append(attrs, table.Attribute{Name: name, Kind: table.Categorical, Domain: domain})
			hs[name] = randNested(rng, name, domain)
		}
	}
	sd := 2 + rng.Intn(5)
	sdom := make([]string, sd)
	for j := range sdom {
		sdom[j] = fmt.Sprintf("s%d", j)
	}
	attrs = append(attrs, table.Attribute{Name: "sens", Kind: table.Categorical, Domain: sdom})
	s, err := table.NewSchema(attrs, "sens")
	if err != nil {
		panic(err)
	}
	tab := table.New(s)
	rows := 1 + rng.Intn(120)
	for r := 0; r < rows; r++ {
		row := make(table.Row, len(attrs))
		for c, a := range attrs {
			if a.Kind == table.Numeric {
				row[c] = strconv.Itoa(rng.Intn(100))
			} else {
				row[c] = a.Domain[rng.Intn(len(a.Domain))]
			}
		}
		tab.MustAppend(row)
	}
	return tab, hs
}

// randLevels draws a random level per hierarchy, bounded component-wise
// by max when max is non-nil.
func randLevels(rng *rand.Rand, hs hierarchy.Set, max bucket.Levels) bucket.Levels {
	levels := bucket.Levels{}
	for name, h := range hs {
		hi := h.Levels()
		if max != nil {
			hi = max[name] + 1
		}
		levels[name] = rng.Intn(hi)
	}
	return levels
}

// TestEncodedParityRandom is the randomized property test: on random
// tables, hierarchies and level vectors, the encoded scan and the
// coarsening derivation are byte-identical to the oracle.
func TestEncodedParityRandom(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 40
	}
	rng := rand.New(rand.NewSource(7))
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
		got, err := bucket.FromGeneralizationEncoded(enc, chs, levels)
		if err != nil {
			t.Fatalf("case %d: encoded: %v", i, err)
		}
		oracle.RequireIdentical(t, want, got, fmt.Sprintf("case %d levels %v", i, levels))

		// Coarsening from any finer vector must land on the same result.
		fineLevels := randLevels(rng, hs, levels)
		fine, err := bucket.FromGeneralizationEncoded(enc, chs, fineLevels)
		if err != nil {
			t.Fatalf("case %d: fine: %v", i, err)
		}
		coarse, err := bucket.CoarsenInto(fine, enc, chs, levels)
		if err != nil {
			t.Fatalf("case %d: coarsen: %v", i, err)
		}
		oracle.RequireIdentical(t, want, coarse,
			fmt.Sprintf("case %d coarsen %v -> %v", i, fineLevels, levels))
	}
}

// TestEncodedParityPaperExample pins the worked example through both key
// paths, and the same schema with no rows, which scans to zero buckets.
func TestEncodedParityPaperExample(t *testing.T) {
	tab := paperTable(t)
	hs := paperHierarchies()
	empty := table.New(tab.Schema)
	for _, tab := range []*table.Table{tab, empty} {
		enc := tab.Encode()
		chs, err := bucket.CompileHierarchies(enc, hs)
		if err != nil {
			t.Fatal(err)
		}
		for _, levels := range []bucket.Levels{
			{},
			{"Zip": 1, "Age": 1},
			{"Zip": 1, "Age": 1, "Sex": 1},
			{"Zip": 2, "Age": 2, "Sex": 1},
		} {
			want, err := oracle.Bucketize(tab, hs, levels)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bucket.FromGeneralizationEncoded(enc, chs, levels)
			if err != nil {
				t.Fatal(err)
			}
			oracle.RequireIdentical(t, want, got, fmt.Sprintf("%d rows, levels %v", tab.Len(), levels))
			if tab.Len() == 0 && len(got.Buckets) != 0 {
				t.Fatalf("empty table, levels %v: %d buckets, want 0", levels, len(got.Buckets))
			}
		}
	}
}

// fallbackCase builds the fixture that forces the byte-tuple key fallback:
// 300 distinct values in each of 8 numeric QI columns, so the generalized
// cardinality product at level 0 (300^8 ≈ 6.6e19) overflows 64 bits and
// the builder cannot take the packed-key path.
func fallbackCase(t *testing.T) (*table.Table, hierarchy.Set) {
	t.Helper()
	const nQI = 8
	attrs := make([]table.Attribute, 0, nQI+1)
	hs := hierarchy.Set{}
	for i := 0; i < nQI; i++ {
		name := fmt.Sprintf("q%d", i)
		attrs = append(attrs, table.Attribute{Name: name, Kind: table.Numeric, Min: 0, Max: 1 << 20})
		hs[name] = hierarchy.MustInterval(name, []int{1, 2, 0})
	}
	attrs = append(attrs, table.Attribute{Name: "sens", Kind: table.Categorical, Domain: []string{"a", "b"}})
	s, err := table.NewSchema(attrs, "sens")
	if err != nil {
		t.Fatal(err)
	}
	tab := table.New(s)
	rng := rand.New(rand.NewSource(11))
	for r := 0; r < 300; r++ {
		row := make(table.Row, nQI+1)
		for c := 0; c < nQI; c++ {
			row[c] = strconv.Itoa(r*7 + c) // all distinct per column
		}
		row[nQI] = []string{"a", "b"}[rng.Intn(2)]
		tab.MustAppend(row)
	}
	return tab, hs
}

// TestEncodedFallbackKeyPath forces the byte-tuple fallback (the
// cardinality product overflows 64 bits) and checks it still groups
// byte-identically.
func TestEncodedFallbackKeyPath(t *testing.T) {
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
	for _, levels := range []bucket.Levels{{}, {"q0": 1, "q3": 1}, {"q0": 2, "q1": 2, "q2": 2}} {
		want, err := oracle.Bucketize(tab, hs, levels)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bucket.FromGeneralizationEncoded(enc, chs, levels)
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, want, got, fmt.Sprintf("fallback levels %v", levels))
		fine, err := bucket.FromGeneralizationEncoded(enc, chs, bucket.Levels{})
		if err != nil {
			t.Fatal(err)
		}
		coarse, err := bucket.CoarsenInto(fine, enc, chs, levels)
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, want, coarse, fmt.Sprintf("fallback coarsen %v", levels))
	}
}

// TestEncodedSparseSensitiveParity drives the value-sorted histogram path
// (a near-unique sensitive column, cardinality above
// bucket.MaxDenseSensitive, so no call ranks the dictionary): the result
// stays byte-identical to the oracle, for the direct scan and for
// coarsening.
func TestEncodedSparseSensitiveParity(t *testing.T) {
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
	rng := rand.New(rand.NewSource(3))
	for r := 0; r < rows; r++ {
		tab.MustAppend(table.Row{
			strconv.Itoa(rng.Intn(100)),
			[]string{"M", "F"}[rng.Intn(2)],
			sdom[r], // every sensitive value unique
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
	for _, levels := range []bucket.Levels{{}, {"Age": 1}, {"Age": 2, "Sex": 1}} {
		want, err := oracle.Bucketize(tab, hs, levels)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bucket.FromGeneralizationEncoded(enc, chs, levels)
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, want, got, fmt.Sprintf("sparse levels %v", levels))
		fine, err := bucket.FromGeneralizationEncoded(enc, chs, bucket.Levels{})
		if err != nil {
			t.Fatal(err)
		}
		coarse, err := bucket.CoarsenInto(fine, enc, chs, levels)
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, want, coarse, fmt.Sprintf("sparse coarsen %v", levels))
	}
}

// TestHistogramCachedAndCountsDropped pins the perf fix: Histogram
// returns the one slice computed at construction, and Count answers from
// the freq slice after the counts map is dropped.
func TestHistogramCachedAndCountsDropped(t *testing.T) {
	bz := bucket.FromValues([]string{"a", "a", "b"}, []string{"c"})
	b := bz.Buckets[0]
	h1, h2 := b.Histogram(), b.Histogram()
	if &h1[0] != &h2[0] {
		t.Fatal("Histogram allocates a fresh slice per call")
	}
	if got := b.Count("a"); got != 2 {
		t.Fatalf("Count(a) = %d, want 2", got)
	}
	if got := b.Count("b"); got != 1 {
		t.Fatalf("Count(b) = %d, want 1", got)
	}
	if got := b.Count("zzz"); got != 0 {
		t.Fatalf("Count(zzz) = %d, want 0", got)
	}
}

// TestLevelsValidation pins the bugfix: typo'd attribute names and
// out-of-range levels are errors naming the offending attribute, on both
// paths, instead of being silently defaulted.
func TestLevelsValidation(t *testing.T) {
	tab := paperTable(t)
	hs := paperHierarchies()
	enc := tab.Encode()
	chs, err := bucket.CompileHierarchies(enc, hs)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		levels bucket.Levels
		frag   string
	}{
		{"unknown attribute", bucket.Levels{"Zap": 1}, `"Zap"`},
		{"unknown attribute at level 0", bucket.Levels{"Zap": 0}, `"Zap"`},
		{"sensitive attribute", bucket.Levels{"Disease": 1}, `"Disease"`},
		{"negative level", bucket.Levels{"Zip": -1}, `"Zip"`},
		{"level out of range", bucket.Levels{"Age": 5}, `"Age"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, errOracle := oracle.Bucketize(tab, hs, tc.levels)
			_, errEncoded := bucket.FromGeneralizationEncoded(enc, chs, tc.levels)
			for path, err := range map[string]error{"oracle": errOracle, "encoded": errEncoded} {
				if err == nil {
					t.Fatalf("%s path accepted levels %v", path, tc.levels)
				}
				if !strings.Contains(err.Error(), tc.frag) {
					t.Fatalf("%s path error %q does not name %s", path, err, tc.frag)
				}
			}
		})
	}
}

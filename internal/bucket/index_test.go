package bucket_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/table"
)

// The scan leaves a row→bucket index behind, coarsening reads one and
// returns its own, and dense frequency tables sort on code ranks. These
// tests pin the index against the buckets' tuples and the rank order
// against table.SortCounts.

// requireIndexMapsRows fails unless idx maps every row of bz's table to
// the bucket whose tuples hold it.
func requireIndexMapsRows(t *testing.T, label string, bz *bucket.Bucketization, idx *bucket.Index, rows int) {
	t.Helper()
	if idx.Rows() != rows {
		t.Fatalf("%s: index covers %d rows, want %d", label, idx.Rows(), rows)
	}
	for row := 0; row < rows; row++ {
		p := idx.Bucket(row)
		if p < 0 || p >= len(bz.Buckets) {
			t.Fatalf("%s: row %d maps to bucket %d of %d", label, row, p, len(bz.Buckets))
		}
		if _, ok := slices.BinarySearch(bz.Buckets[p].Tuples, row); !ok {
			t.Fatalf("%s: row %d maps to bucket %d (%q), which does not hold it", label, row, p, bz.Buckets[p].Key)
		}
	}
}

// TestIndexedChainParityRandom derives root → a → b through the indexes
// the scan and CoarsenIndexed return, and requires every step to equal
// oracle.Bucketize and CoarsenInto's path, which indexes each source from
// its tuples, and every returned index to map rows to their buckets.
func TestIndexedChainParityRandom(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 20
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < cases; i++ {
		tab, hs := randCase(rng)
		enc := tab.Encode()
		chs, err := bucket.CompileHierarchies(enc, hs)
		if err != nil {
			t.Fatalf("case %d: compile: %v", i, err)
		}
		lb := randLevels(rng, hs, nil)
		la := randLevels(rng, hs, lb)
		l0 := randLevels(rng, hs, la)
		label := fmt.Sprintf("case %d %v -> %v -> %v", i, l0, la, lb)
		root, idx, err := bucket.ScanIndexed(enc, chs, l0)
		if err != nil {
			t.Fatalf("%s: scan: %v", label, err)
		}
		requireIndexMapsRows(t, label+" root", root, idx, tab.Len())
		from, tupleFrom := root, root
		for _, levels := range []bucket.Levels{la, lb} {
			got, next, err := bucket.CoarsenIndexed(from, idx, enc, chs, levels)
			if err != nil {
				t.Fatalf("%s: coarsen to %v: %v", label, levels, err)
			}
			want, err := oracle.Bucketize(tab, hs, levels)
			if err != nil {
				t.Fatal(err)
			}
			oracle.RequireIdentical(t, want, got, fmt.Sprintf("%s: indexed step to %v", label, levels))
			viaTuples, err := bucket.CoarsenInto(tupleFrom, enc, chs, levels)
			if err != nil {
				t.Fatal(err)
			}
			oracle.RequireIdentical(t, viaTuples, got, fmt.Sprintf("%s: tuple-indexed step to %v", label, levels))
			requireIndexMapsRows(t, fmt.Sprintf("%s: index at %v", label, levels), got, next, tab.Len())
			from, idx, tupleFrom = got, next, viaTuples
		}
	}
}

// TestIndexOfRejectsNonPartition pins IndexOf's guard: buckets that miss
// a row, repeat one or name one outside the table get an error, never an
// index that would send coarsening out of range.
func TestIndexOfRejectsNonPartition(t *testing.T) {
	bz := bucket.FromValues([]string{"a", "b"}, []string{"c"}) // rows 0, 1 | 2
	if _, err := bucket.IndexOf(bz, 3); err != nil {
		t.Fatalf("exact partition rejected: %v", err)
	}
	for _, rows := range []int{2, 4} {
		if _, err := bucket.IndexOf(bz, rows); err == nil {
			t.Fatalf("buckets of 3 rows indexed over %d rows", rows)
		}
	}
	src := table.New(mustSchema(t))
	for _, v := range []string{"x", "y", "x"} {
		src.MustAppend(table.Row{"1", v})
	}
	dup, err := bucket.FromTupleGroups(src, []string{"k0", "k1"}, [][]int{{0, 1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bucket.IndexOf(dup, 3); err == nil {
		t.Fatal("a row in two buckets was indexed")
	}
}

// TestCheckIndexRows pins the int32 bound: a table of 2^31 rows or more
// is an error, not a wrapped bucket position.
func TestCheckIndexRows(t *testing.T) {
	if err := bucket.CheckIndexRows(1<<31 - 1); err != nil {
		t.Fatalf("2^31-1 rows rejected: %v", err)
	}
	if err := bucket.CheckIndexRows(1 << 31); err == nil {
		t.Fatal("2^31 rows accepted")
	}
}

// mustSchema is a one-QI schema whose sensitive values are free strings
// drawn from a fixed domain.
func mustSchema(t *testing.T) *table.Schema {
	t.Helper()
	s, err := table.NewSchema([]table.Attribute{
		{Name: "Age", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "sens", Kind: table.Categorical, Domain: []string{"a", "b", "c", "d", "m", "n", "x", "y"}},
	}, "sens")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rowCounts tallies the sensitive values of rows, the input of
// table.SortCounts.
func rowCounts(tab *table.Table, rows []int) map[string]int {
	m := map[string]int{}
	for _, r := range rows {
		m[tab.SensitiveValue(r)]++
	}
	return m
}

// requireSortCounts fails unless every bucket's frequency table is
// table.SortCounts of its rows' sensitive values.
func requireSortCounts(t *testing.T, label string, tab *table.Table, bz *bucket.Bucketization) {
	t.Helper()
	for _, b := range bz.Buckets {
		if want := table.SortCounts(rowCounts(tab, b.Tuples)); !reflect.DeepEqual(b.Freq(), want) {
			t.Fatalf("%s: bucket %q freq %v, SortCounts %v", label, b.Key, b.Freq(), want)
		}
	}
}

// TestDenseFreqTiesFollowValueOrder builds dense histograms with tied
// counts over a dictionary whose code order (first appearance: c, a, b,
// d) differs from its value order: the scan, a merging coarsen and an
// append must all order ties by value, as table.SortCounts does.
func TestDenseFreqTiesFollowValueOrder(t *testing.T) {
	s := mustSchema(t)
	hs := hierarchy.Set{"Age": hierarchy.MustInterval("Age", []int{1, 10, 0})}
	rows := []table.Row{
		{"11", "c"}, {"12", "a"}, {"21", "b"}, {"13", "a"},
		{"22", "c"}, {"14", "b"}, {"23", "d"}, {"24", "d"},
	}
	tab := table.New(s)
	for _, r := range rows {
		tab.MustAppend(r)
	}
	enc := tab.Encode()
	if got := enc.SensitiveDict().Values(); slices.IsSorted(got) {
		t.Fatalf("fixture dictionary %v is in value order; ties would not test ranks", got)
	}
	chs, err := bucket.CompileHierarchies(enc, hs)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := bucket.FromGeneralizationEncoded(enc, chs, bucket.Levels{"Age": 1})
	if err != nil {
		t.Fatal(err)
	}
	requireSortCounts(t, "scan", tab, fine)
	top, err := bucket.CoarsenInto(fine, enc, chs, bucket.Levels{"Age": 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Buckets) != 1 || top.Buckets[0].Distinct() != 4 || top.Buckets[0].TopCount() != 2 {
		t.Fatalf("top node %v: want one bucket of four tied values", top.Buckets)
	}
	requireSortCounts(t, "merged coarsen", tab, top)

	grown, chsGrown, start := buildAppended(t, s, hs, rows[:6], rows[6:])
	before := table.New(s)
	for _, r := range rows[:6] {
		before.MustAppend(r)
	}
	beforeEnc := before.Encode()
	beforeCHS, err := bucket.CompileHierarchies(beforeEnc, hs)
	if err != nil {
		t.Fatal(err)
	}
	old, err := bucket.FromGeneralizationEncoded(beforeEnc, beforeCHS, bucket.Levels{"Age": 2})
	if err != nil {
		t.Fatal(err)
	}
	appended, err := bucket.AppendRows(old, grown, chsGrown, bucket.Levels{"Age": 2}, start)
	if err != nil {
		t.Fatal(err)
	}
	requireSortCounts(t, "append", grown.Table, appended)
}

// TestAppendedValueSortingFirst appends rows whose sensitive value gets
// the newest code but sorts before every older value, tied on count with
// the old values, into an existing bucket and a new one: the merged and
// the fresh frequency tables must put it first among its ties.
func TestAppendedValueSortingFirst(t *testing.T) {
	s := mustSchema(t)
	hs := hierarchy.Set{"Age": hierarchy.MustInterval("Age", []int{1, 10, 0})}
	base := []table.Row{{"11", "n"}, {"12", "m"}, {"13", "n"}, {"14", "m"}}
	extra := []table.Row{{"15", "a"}, {"16", "a"}, {"31", "a"}, {"32", "n"}}
	enc, chs, start := buildAppended(t, s, hs, base, extra)
	if code, ok := enc.SensitiveDict().Code("a"); !ok || int(code) != enc.SensitiveDict().Len()-1 {
		t.Fatalf("appended value has code %d (ok=%v), want the newest", code, ok)
	}
	baseTab := table.New(s)
	for _, r := range base {
		baseTab.MustAppend(r)
	}
	baseEnc := baseTab.Encode()
	baseCHS, err := bucket.CompileHierarchies(baseEnc, hs)
	if err != nil {
		t.Fatal(err)
	}
	for _, levels := range []bucket.Levels{{"Age": 1}, {"Age": 2}} {
		old, err := bucket.FromGeneralizationEncoded(baseEnc, baseCHS, levels)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bucket.AppendRows(old, enc, chs, levels, start)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("append at %v", levels)
		requireSortCounts(t, label, enc.Table, got)
		if first := got.Buckets[0].Freq()[0]; first.Value != "a" {
			t.Fatalf("%s: first bucket's top entry %v, want value a", label, first)
		}
		want, err := oracle.Bucketize(enc.Table, hs, levels)
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, want, got, label)
	}
}

package bucket_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/table"
)

// This file tests the histogram form: bucketizations built without row
// ids, for callers that read only sizes, keys, representative rows and
// histograms. Each constructor must build the same buckets in that form
// as in the row-id form, and a fill-in must turn the first into the
// second without rebuilding any derived state.

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
		rep := -1
		if len(w.Tuples) > 0 {
			rep = slices.Min(w.Tuples)
		}
		if w.Rep() != rep || w.Size() != len(w.Tuples) {
			t.Fatalf("%s: row-id bucket %d (%s) reports size %d from row %d, its rows say %d from %d", label, i, w.Key, w.Size(), w.Rep(), len(w.Tuples), rep)
		}
		if g.Key != w.Key || g.Size() != w.Size() || g.Rep() != w.Rep() {
			t.Fatalf("%s: bucket %d is %q of %d rows from row %d, want %q of %d from %d", label, i, g.Key, g.Size(), g.Rep(), w.Key, w.Size(), w.Rep())
		}
		if !slices.Equal(g.Histogram(), w.Histogram()) || !reflect.DeepEqual(g.Freq(), w.Freq()) {
			t.Fatalf("%s: bucket %d (%s) freq %v, want %v", label, i, g.Key, g.Freq(), w.Freq())
		}
	}
	if got.Size() != want.Size() || math.Float64bits(got.MinEntropy()) != math.Float64bits(want.MinEntropy()) {
		t.Fatalf("%s: Size %d MinEntropy %v, want %d and %v", label, got.Size(), got.MinEntropy(), want.Size(), want.MinEntropy())
	}
}

// scanForm scans enc at levels in the row-id form (rowIDs) or the
// histogram form.
func scanForm(t *testing.T, enc *table.Encoded, chs hierarchy.CompiledSet, levels bucket.Levels, rowIDs bool) (*bucket.Bucketization, *bucket.Index) {
	t.Helper()
	bz, idx, err := bucket.ScanIndexed(enc, chs, levels, rowIDs, nil)
	if err != nil {
		t.Fatalf("scan %v: %v", levels, err)
	}
	if (idx != nil) != rowIDs {
		t.Fatalf("scan %v with row ids %v returned index %v", levels, rowIDs, idx != nil)
	}
	return bz, idx
}

// TestHistogramFormParityRandom: on the random tables of the encoded and
// coarsening parity suites, the histogram form built by a scan, by
// coarsening a source of either form, and by appending to a
// histogram-form node equals the row-id form in keys, bucket order,
// sizes, representative rows and histograms. A row-id coarsening of a
// histogram-form source fails instead of reading row ids it lacks.
func TestHistogramFormParityRandom(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 30
	}
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < cases; i++ {
		tab, hs := randCase(rng)
		enc := tab.Encode()
		chs, err := bucket.CompileHierarchies(enc, hs)
		if err != nil {
			t.Fatalf("case %d: compile: %v", i, err)
		}
		levels := randLevels(rng, hs, nil)
		label := fmt.Sprintf("case %d levels %v", i, levels)
		want, _ := scanForm(t, enc, chs, levels, true)
		hist, _ := scanForm(t, enc, chs, levels, false)
		requireHistogramForm(t, want, hist, label+" scan")

		fineLevels := randLevels(rng, hs, levels)
		fineRows, fineIdx := scanForm(t, enc, chs, fineLevels, true)
		fineHist, _ := scanForm(t, enc, chs, fineLevels, false)
		for name, fine := range map[string]*bucket.Bucketization{"row-id": fineRows, "histogram": fineHist} {
			coarse, idx, err := bucket.CoarsenIndexed(fine, nil, enc, chs, levels)
			if err != nil || idx != nil {
				t.Fatalf("%s: coarsen %s source %v: index %v, %v", label, name, fineLevels, idx != nil, err)
			}
			requireHistogramForm(t, want, coarse, fmt.Sprintf("%s coarsen %s %v", label, name, fineLevels))
		}
		if _, _, err := bucket.CoarsenIndexed(fineHist, fineIdx, enc, chs, levels); err == nil && fineHist.Size() > 0 {
			t.Fatalf("%s: a row-id coarsening of a histogram-form source succeeded", label)
		}
	}
}

// TestHistogramFormAppendParityRandom: on the append parity suite's
// tables, AppendRows into a histogram-form node of the base rows keeps the
// form and equals a row-id rescan of the grown table.
func TestHistogramFormAppendParityRandom(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 30
	}
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < cases; i++ {
		tab, hs := randCase(rng)
		base, extra := splitRows(rng, tab)
		enc, chs, start := buildAppended(t, tab.Schema, hs, base, extra)
		levels := randLevels(rng, hs, nil)
		label := fmt.Sprintf("case %d cut %d levels %v", i, start, levels)

		baseTab := table.New(tab.Schema)
		for _, r := range base {
			baseTab.MustAppend(r)
		}
		baseEnc := baseTab.Encode()
		baseCHS, err := bucket.CompileHierarchies(baseEnc, hs)
		if err != nil {
			t.Fatalf("%s: base compile: %v", label, err)
		}
		before, _ := scanForm(t, baseEnc, baseCHS, levels, false)
		got, err := bucket.AppendRows(before, enc, chs, levels, start)
		if err != nil {
			t.Fatalf("%s: AppendRows: %v", label, err)
		}
		want, _ := scanForm(t, enc, chs, levels, true)
		requireHistogramForm(t, want, got, label)
	}
}

// TestFillInSharesHistogramState fills in the row ids of a histogram-form
// bucketization that has published rows, a disclosure series, a class
// index and its MinEntropy: the result equals a row-id scan, row ids and
// index included, and carries all of that state without rebuilding it. A
// fill-in at levels other than the histograms' fails, and a hist fills in
// row ids whatever rowIDs says.
func TestFillInSharesHistogramState(t *testing.T) {
	enc := paperTable(t).Encode()
	chs, err := bucket.CompileHierarchies(enc, paperHierarchies())
	if err != nil {
		t.Fatal(err)
	}
	levels := bucket.Levels{"Zip": 1, "Age": 1}
	hist, _ := scanForm(t, enc, chs, levels, false)
	for i, b := range hist.Buckets {
		b.PublishM1Row(testRow(2 + i%3))
	}
	series := []float64{0.5, 0.75}
	hist.PublishDisclosureSeries(0, series)
	var scan bucket.ClassScan
	scan.Start(hist)
	for scan.Next() {
	}
	scan.Close()
	hist.MinEntropy()

	filled, idx, err := bucket.ScanIndexed(enc, chs, levels, true, hist)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Bucketize(enc.Table, paperHierarchies(), levels)
	if err != nil {
		t.Fatal(err)
	}
	oracle.RequireIdentical(t, want, filled, "fill-in")
	requireIndexMapsRows(t, "fill-in", filled, idx, enc.Rows())
	for i, b := range filled.Buckets {
		h := hist.Buckets[i]
		if &b.Histogram()[0] != &h.Histogram()[0] || &b.M1Row(0)[0] != &h.M1Row(0)[0] {
			t.Fatalf("filled bucket %q does not share its histogram and row", b.Key)
		}
	}
	if d := filled.DisclosureSeries(0); len(d) != len(series) || &d[0] != &series[0] {
		t.Fatalf("filled bucketization's series %v, want the published %v", d, series)
	}
	if !filled.Indexed() {
		t.Fatal("filled bucketization lost the class index")
	}

	if _, _, err := bucket.ScanIndexed(enc, chs, bucket.Levels{"Zip": 2, "Age": 1}, true, hist); err == nil {
		t.Fatal("a fill-in at other levels succeeded")
	}
	again, _, err := bucket.ScanIndexed(enc, chs, levels, false, hist)
	if err != nil {
		t.Fatal(err)
	}
	oracle.RequireIdentical(t, want, again, "fill-in with rowIDs unset")
}

// renamedPairs coarsens fine to levels and returns each coarse bucket
// that renames a fine bucket (a group of one), with that fine bucket; a
// renamed bucket shares its source's histogram slice.
func renamedPairs(t *testing.T, fine *bucket.Bucketization, idx *bucket.Index, enc *table.Encoded, chs hierarchy.CompiledSet, levels bucket.Levels) (renamed, src []*bucket.Bucket) {
	t.Helper()
	coarse, _, err := bucket.CoarsenIndexed(fine, idx, enc, chs, levels)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range coarse.Buckets {
		for _, f := range fine.Buckets {
			if &f.Histogram()[0] == &c.Histogram()[0] {
				renamed, src = append(renamed, c), append(src, f)
			}
		}
	}
	if len(renamed) == 0 || len(renamed) == len(coarse.Buckets) {
		t.Fatalf("%d of %d coarse buckets renamed; the test needs both kinds", len(renamed), len(coarse.Buckets))
	}
	return renamed, src
}

// TestRenamedBucketsShareRows: a coarsening that renames a fine bucket
// shares the bucket's MINIMIZE1 row slot, not a copy of what it held, so
// rows published on the fine buckets after the coarsening ran are read
// by the renamed buckets without building any, in either form, and
// publishers racing on the two copies leave the one longest row.
func TestRenamedBucketsShareRows(t *testing.T) {
	enc := paperTable(t).Encode()
	chs, err := bucket.CompileHierarchies(enc, paperHierarchies())
	if err != nil {
		t.Fatal(err)
	}
	fineLevels := bucket.Levels{"Zip": 0, "Age": 0, "Sex": 0}
	coarseLevels := bucket.Levels{"Zip": 0, "Age": 1, "Sex": 0}
	for _, rowIDs := range []bool{true, false} {
		fine, idx := scanForm(t, enc, chs, fineLevels, rowIDs)
		renamed, src := renamedPairs(t, fine, idx, enc, chs, coarseLevels)
		for i, f := range src {
			u := testRow(2 + i%4)
			f.PublishM1Row(u)
			if got := renamed[i].M1Row(0); len(got) == 0 || &got[0] != &u[0] {
				t.Fatalf("row ids %v: renamed bucket %q reads %v after its source published %v", rowIDs, renamed[i].Key, got, u)
			}
		}
	}

	for round := 0; round < 20; round++ {
		fine, idx := scanForm(t, enc, chs, fineLevels, round%2 == 0)
		renamed, src := renamedPairs(t, fine, idx, enc, chs, coarseLevels)
		a, b := src[0], renamed[0]
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				target := a
				if w%2 == 1 {
					target = b
				}
				target.PublishM1Row(testRow(1 + w%9))
			}(w)
		}
		close(start)
		wg.Wait()
		ua, ub := a.M1Row(0), b.M1Row(0)
		if len(ua) != 9 || &ua[0] != &ub[0] {
			t.Fatalf("round %d: source holds a %d-wide row and its renamed copy a %d-wide one, want one 9-wide row", round, len(ua), len(ub))
		}
	}
}

// TestRowIDOperationsFailWithoutThem: the operations that hand out or
// need row ids fail on the histogram form instead of panicking or
// answering from rows the buckets do not hold.
func TestRowIDOperationsFailWithoutThem(t *testing.T) {
	enc := paperTable(t).Encode()
	chs, err := bucket.CompileHierarchies(enc, paperHierarchies())
	if err != nil {
		t.Fatal(err)
	}
	hist, _ := scanForm(t, enc, chs, bucket.Levels{"Zip": 1, "Age": 1}, false)
	if _, err := hist.Publish(rand.New(rand.NewSource(1))); err == nil {
		t.Error("Publish succeeded")
	}
	if i, err := hist.BucketOf(0); err == nil {
		t.Errorf("BucketOf(0) = %d with no error", i)
	}
	if _, err := hist.Merge(0, 1); err == nil {
		t.Error("Merge succeeded")
	}
	if _, err := bucket.IndexOf(hist, enc.Rows()); err == nil {
		t.Error("IndexOf succeeded")
	}
}

// TestHistogramFormFallbackKeyPath builds the histogram form on the
// byte-tuple key fallback (keys that do not pack into 64 bits), by a scan
// and by coarsening, where pass 1 keys every fine bucket through its
// representative row alone.
func TestHistogramFormFallbackKeyPath(t *testing.T) {
	tab, hs := fallbackCase(t)
	enc := tab.Encode()
	chs, err := bucket.CompileHierarchies(enc, hs)
	if err != nil {
		t.Fatal(err)
	}
	fine, _ := scanForm(t, enc, chs, bucket.Levels{}, false)
	for _, levels := range []bucket.Levels{{}, {"q0": 1, "q3": 1}, {"q0": 2, "q1": 2, "q2": 2}} {
		want, _ := scanForm(t, enc, chs, levels, true)
		hist, _ := scanForm(t, enc, chs, levels, false)
		requireHistogramForm(t, want, hist, fmt.Sprintf("fallback scan %v", levels))
		coarse, _, err := bucket.CoarsenIndexed(fine, nil, enc, chs, levels)
		if err != nil {
			t.Fatal(err)
		}
		requireHistogramForm(t, want, coarse, fmt.Sprintf("fallback coarsen %v", levels))
	}
}

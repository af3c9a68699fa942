package bucket_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/table"
)

// splitRows divides a table's rows into a base prefix and an appended
// suffix at a random cut (possibly empty on either side).
func splitRows(rng *rand.Rand, tab *table.Table) ([]table.Row, []table.Row) {
	cut := 1 + rng.Intn(tab.Len())
	return tab.Rows[:cut], tab.Rows[cut:]
}

// buildAppended encodes the base rows, appends the suffix through the
// append path, and returns the master view plus extended hierarchies; the
// parity harness compares its bucketizations against a from-scratch
// rebuild on the full table.
func buildAppended(t *testing.T, s *table.Schema, hs hierarchy.Set, base, extra []table.Row) (*table.Encoded, hierarchy.CompiledSet, int) {
	t.Helper()
	tab := table.New(s)
	for _, r := range base {
		tab.MustAppend(r)
	}
	enc := tab.Encode()
	chs, err := bucket.CompileHierarchies(enc, hs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	delta, err := enc.Append(extra)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	// Extend every compiled hierarchy whose column gained codes.
	for name, c := range chs {
		col := enc.Table.Schema.Index(name)
		if delta.NewValueCount(col) == 0 {
			continue
		}
		ext, err := c.Extend(hs[name], enc.Dicts[col].Values())
		if err != nil {
			t.Fatalf("extend %s: %v", name, err)
		}
		chs[name] = ext
	}
	return enc, chs, delta.Start
}

// TestAppendRowsParityRandom is the randomized append-parity property at
// the bucketization layer: for random tables, hierarchies and levels,
// bucketize(A) + bucket.AppendRows(B) must be byte-identical to a from-scratch
// bucket.FromGeneralizationEncoded and to oracle.Bucketize on A ++ B.
func TestAppendRowsParityRandom(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 30
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < cases; i++ {
		tab, hs := randCase(rng)
		base, extra := splitRows(rng, tab)
		enc, chs, start := buildAppended(t, tab.Schema, hs, base, extra)
		levels := randLevels(rng, hs, nil)
		label := fmt.Sprintf("case %d cut %d levels %v", i, start, levels)

		old, err := bucket.FromGeneralizationEncoded(enc.Snapshot(), chs, levels)
		if err != nil {
			// The snapshot spans all rows (append already ran); levels are
			// valid by construction.
			t.Fatalf("%s: full-scan: %v", label, err)
		}
		// Rebuild the "before" bucketization over the base prefix only, as
		// the warm cache would have held it.
		baseTab := table.New(tab.Schema)
		for _, r := range base {
			baseTab.MustAppend(r)
		}
		baseEnc := baseTab.Encode()
		baseCHS, err := bucket.CompileHierarchies(baseEnc, hs)
		if err != nil {
			t.Fatalf("%s: base compile: %v", label, err)
		}
		before, err := bucket.FromGeneralizationEncoded(baseEnc, baseCHS, levels)
		if err != nil {
			t.Fatalf("%s: base scan: %v", label, err)
		}

		got, err := bucket.AppendRows(before, enc, chs, levels, start)
		if err != nil {
			t.Fatalf("%s: bucket.AppendRows: %v", label, err)
		}
		oracle.RequireIdentical(t, old, got, label+" (vs encoded rebuild)")

		want, err := oracle.Bucketize(enc.Table, hs, levels)
		if err != nil {
			t.Fatalf("%s: oracle rebuild: %v", label, err)
		}
		oracle.RequireIdentical(t, want, got, label+" (vs oracle rebuild)")

		// The old bucketization must be untouched (copy-on-write).
		oracle.RequireIdentical(t, before, func() *bucket.Bucketization {
			b, err := bucket.FromGeneralizationEncoded(baseEnc, baseCHS, levels)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}(), label+" (before intact)")

		// An appended bucketization must keep working as a CoarsenInto source.
		coarseLevels := bucket.Levels{}
		for name, lvl := range levels {
			top := hs[name].Levels() - 1
			coarseLevels[name] = lvl + rng.Intn(top-lvl+1)
		}
		wantCoarse, err := bucket.FromGeneralizationEncoded(enc, chs, coarseLevels)
		if err != nil {
			t.Fatalf("%s: coarse scan: %v", label, err)
		}
		gotCoarse, err := bucket.CoarsenInto(got, enc, chs, coarseLevels)
		if err != nil {
			t.Fatalf("%s: coarsen appended: %v", label, err)
		}
		oracle.RequireIdentical(t, wantCoarse, gotCoarse, label+" (coarsen after append)")
	}
}

// TestAppendRowsEmptyAndErrors covers the degenerate paths: an empty
// append re-anchors the partition on the snapshot, and out-of-range starts
// are rejected.
func TestAppendRowsEmptyAndErrors(t *testing.T) {
	tab := paperTable(t)
	hs := paperHierarchies()
	enc := tab.Encode()
	chs, err := bucket.CompileHierarchies(enc, hs)
	if err != nil {
		t.Fatal(err)
	}
	levels := bucket.Levels{"Zip": 1, "Age": 1}
	bz, err := bucket.FromGeneralizationEncoded(enc, chs, levels)
	if err != nil {
		t.Fatal(err)
	}
	same, err := bucket.AppendRows(bz, enc, chs, levels, enc.Rows())
	if err != nil {
		t.Fatal(err)
	}
	oracle.RequireIdentical(t, bz, same, "empty append")
	if _, err := bucket.AppendRows(bz, enc, chs, levels, enc.Rows()+1); err == nil {
		t.Fatal("accepted start beyond the table")
	}
	if _, err := bucket.AppendRows(bz, enc, chs, levels, -1); err == nil {
		t.Fatal("accepted negative start")
	}
}

// TestAppendRowsNewSensitiveCode pins the histogram-growth path: appended
// rows introduce sensitive values the base table never saw, both into an
// existing bucket and into a new one, and the merged histograms must
// match a rebuild (including a subsequent CoarsenInto over histograms
// coded over the pre-append and the grown dictionary).
func TestAppendRowsNewSensitiveCode(t *testing.T) {
	sdom := make([]string, 40)
	for i := range sdom {
		sdom[i] = fmt.Sprintf("s%02d", i)
	}
	s, err := table.NewSchema([]table.Attribute{
		{Name: "Age", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "sens", Kind: table.Categorical, Domain: sdom},
	}, "sens")
	if err != nil {
		t.Fatal(err)
	}
	hs := hierarchy.Set{"Age": hierarchy.MustInterval("Age", []int{1, 10, 0})}
	base := []table.Row{{"11", "s00"}, {"12", "s01"}, {"21", "s00"}}
	extra := []table.Row{{"13", "s05"}, {"31", "s06"}, {"11", "s05"}}
	enc, chs, start := buildAppended(t, s, hs, base, extra)
	for _, levels := range []bucket.Levels{{}, {"Age": 1}, {"Age": 2}} {
		baseTab := table.New(s)
		for _, r := range base {
			baseTab.MustAppend(r)
		}
		baseEnc := baseTab.Encode()
		baseCHS, err := bucket.CompileHierarchies(baseEnc, hs)
		if err != nil {
			t.Fatal(err)
		}
		before, err := bucket.FromGeneralizationEncoded(baseEnc, baseCHS, levels)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bucket.AppendRows(before, enc, chs, levels, start)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Bucketize(enc.Table, hs, levels)
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, want, got, fmt.Sprintf("new sensitive codes, levels %v", levels))
		// Coarsen the appended result: untouched buckets carry
		// histograms coded over the pre-append dictionary.
		top := bucket.Levels{"Age": 2}
		wantTop, err := bucket.FromGeneralizationEncoded(enc, chs, top)
		if err != nil {
			t.Fatal(err)
		}
		gotTop, err := bucket.CoarsenInto(got, enc, chs, top)
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, wantTop, gotTop, fmt.Sprintf("coarsen mixed histograms from %v", levels))
	}
}

// TestAppendRowsFallbackKeyPath drives the byte-tuple fallback through the
// append path: dimension cardinalities overflowing uint64 packing must
// still merge appended rows byte-identically.
func TestAppendRowsFallbackKeyPath(t *testing.T) {
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
	rng := rand.New(rand.NewSource(13))
	mkRow := func(r int) table.Row {
		row := make(table.Row, nQI+1)
		for c := 0; c < nQI; c++ {
			row[c] = strconv.Itoa(r*7 + c)
		}
		row[nQI] = []string{"a", "b"}[rng.Intn(2)]
		return row
	}
	var base, extra []table.Row
	for r := 0; r < 300; r++ {
		base = append(base, mkRow(r))
	}
	for r := 300; r < 340; r++ {
		extra = append(extra, mkRow(r))
	}
	enc, chs, start := buildAppended(t, s, hs, base, extra)
	packed, err := bucket.Packable(enc, chs, bucket.Levels{})
	if err != nil {
		t.Fatal(err)
	}
	if packed {
		t.Fatal("fixture unexpectedly packable; fallback path not exercised")
	}
	for _, levels := range []bucket.Levels{{}, {"q0": 1, "q3": 1}, {"q0": 2, "q1": 2, "q2": 2}} {
		baseTab := table.New(s)
		for _, r := range base {
			baseTab.MustAppend(r)
		}
		baseEnc := baseTab.Encode()
		baseCHS, err := bucket.CompileHierarchies(baseEnc, hs)
		if err != nil {
			t.Fatal(err)
		}
		before, err := bucket.FromGeneralizationEncoded(baseEnc, baseCHS, levels)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bucket.AppendRows(before, enc, chs, levels, start)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Bucketize(enc.Table, hs, levels)
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, want, got, fmt.Sprintf("fallback levels %v", levels))
	}
}

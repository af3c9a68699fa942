package synth

import (
	"fmt"
	"testing"

	"ckprivacy/internal/bucket"
)

// TestDeterminism is the satellite requirement: the same seed (and
// configuration) always yields the identical table, and the batching of
// the stream cannot change any row.
func TestDeterminism(t *testing.T) {
	cfg := Config{Rows: 5000, Seed: 42, Regions: 20, Occupations: 12}
	gen := func() *Generator {
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	whole := gen().Next(cfg.Rows)
	if len(whole) != cfg.Rows {
		t.Fatalf("emitted %d rows, want %d", len(whole), cfg.Rows)
	}

	again := gen().Next(cfg.Rows)
	for i := range whole {
		for c := range whole[i] {
			if whole[i][c] != again[i][c] {
				t.Fatalf("row %d col %d: %q != %q across runs with equal seed", i, c, whole[i][c], again[i][c])
			}
		}
	}

	// Batch-split invariance: odd batch sizes concatenate to the same rows.
	g := gen()
	var chunked []Row
	for _, n := range []int{1, 7, 100, 1 << 20} {
		for _, r := range g.Next(n) {
			chunked = append(chunked, r)
		}
	}
	if g.Remaining() != 0 || g.Next(1) != nil {
		t.Fatalf("stream not exhausted: %d remaining", g.Remaining())
	}
	if len(chunked) != len(whole) {
		t.Fatalf("chunked stream emitted %d rows, want %d", len(chunked), len(whole))
	}
	for i := range whole {
		for c := range whole[i] {
			if whole[i][c] != chunked[i][c] {
				t.Fatalf("row %d col %d: %q != %q across batch splits", i, c, whole[i][c], chunked[i][c])
			}
		}
	}

	// A different seed must actually change the stream.
	other, err := New(Config{Rows: cfg.Rows, Seed: 43, Regions: 20, Occupations: 12})
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i, r := range other.Next(cfg.Rows) {
		for c := range r {
			if r[c] != whole[i][c] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("seeds 42 and 43 generated identical tables")
	}
}

// Row aliases the table row type for the test's scratch slice.
type Row = []string

// TestBundleAnalyzable checks the generated bundle wires up: rows respect
// the schema, hierarchies compile over the encoded view, and the default
// levels bucketize.
func TestBundleAnalyzable(t *testing.T) {
	b, err := Bundle(Config{Rows: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if b.Table.Len() != 2000 {
		t.Fatalf("bundle has %d rows, want 2000", b.Table.Len())
	}
	bz, err := bucket.Bucketize(b.Table, b.Hierarchies, b.DefaultLevels)
	if err != nil {
		t.Fatalf("hierarchies failed to compile over the generated table: %v", err)
	}
	if len(bz.Buckets) == 0 {
		t.Fatal("default-levels bucketization is empty")
	}

	// Skew should concentrate mass: the most frequent region must clearly
	// exceed a uniform share.
	counts := map[string]int{}
	col := b.Table.Schema.Index("Region")
	for _, r := range b.Table.Rows {
		counts[r[col]]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	uniform := b.Table.Len() / DefaultRegions
	if max <= uniform {
		t.Fatalf("top region count %d not above uniform share %d; skew not applied", max, uniform)
	}
}

// TestConfigValidation pins the rejection of nonsense configurations.
func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Rows: -1},
		{Regions: 1},
		{Occupations: 1},
		{AgeMax: -5},
		{Skew: -0.5},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an invalid configuration", cfg)
		}
	}
	g, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Config()
	if c.Rows != DefaultRows || c.Regions != DefaultRegions || c.Occupations != DefaultOccupations {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

// TestHierarchiesCoverEveryValue compiles the hierarchy set against a
// maximal-cardinality table so appends can never outrun the compiled
// domains (domains are closed: every value a generator can emit is in the
// schema).
func TestHierarchiesCoverEveryValue(t *testing.T) {
	for _, cfg := range []Config{{Rows: 500}, {Rows: 500, Regions: 7, Occupations: 300, AgeMax: 10}} {
		b, err := Bundle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bucket.CompileHierarchies(b.Table.Encode(), b.Hierarchies); err != nil {
			t.Fatalf("config %+v: hierarchies do not cover the generated values: %v", cfg, err)
		}
		for name, h := range b.Hierarchies {
			if h.Levels() < 2 {
				t.Errorf("%s hierarchy has %d levels, want >= 2", name, h.Levels())
			}
		}
	}
}

func ExampleGenerator_Next() {
	g, _ := New(Config{Rows: 3, Seed: 1, Regions: 5, Occupations: 5})
	for _, row := range g.Next(3) {
		fmt.Println(len(row))
	}
	// Output:
	// 4
	// 4
	// 4
}

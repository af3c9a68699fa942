package bucket_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/table"
)

// appendChain is a table's first rows and the batches appended after them,
// bucketized at one level vector.
type appendChain struct {
	schema  *table.Schema
	hs      hierarchy.Set
	levels  bucket.Levels
	base    []table.Row
	batches [][]table.Row
}

// Chain shapes: randCase's small tables, whose batches bring new keys and
// a sensitive value the base never saw; a sensitive column above
// bucket.MaxDenseSensitive, whose histograms sort on decoded values; and
// keys too wide to pack, which group on the byte-tuple fallback.
const (
	chainSmall = iota
	chainSparse
	chainWide
	chainShapes
)

// randChain draws a chain of 1–4 appends in the given shape.
func randChain(rng *rand.Rand, shape int) appendChain {
	var tab *table.Table
	var hs hierarchy.Set
	switch shape {
	case chainSmall:
		tab, hs = randCase(rng)
		// Hold the rows of one sensitive value back for the batches.
		sens := tab.Schema.SensitiveIndex
		held := tab.Rows[rng.Intn(tab.Len())][sens]
		rows := slices.Clone(tab.Rows)
		slices.SortStableFunc(rows, func(a, b table.Row) int {
			return boolRank(a[sens] == held) - boolRank(b[sens] == held)
		})
		tab.Rows = rows
	case chainSparse:
		sdom := make([]string, 2*bucket.MaxDenseSensitive)
		for i := range sdom {
			sdom[i] = fmt.Sprintf("s%03d", i)
		}
		s := chainSchema([]table.Attribute{
			{Name: "Age", Kind: table.Numeric, Min: 0, Max: 99},
			{Name: "Sex", Kind: table.Categorical, Domain: []string{"M", "F"}},
			{Name: "sens", Kind: table.Categorical, Domain: sdom},
		})
		hs = hierarchy.Set{
			"Age": hierarchy.MustInterval("Age", []int{1, 10, 0}),
			"Sex": hierarchy.NewSuppression("Sex", []string{"M", "F"}),
		}
		tab = table.New(s)
		for r := 200 + rng.Intn(200); r > 0; r-- {
			tab.MustAppend(table.Row{strconv.Itoa(rng.Intn(100)), []string{"M", "F"}[rng.Intn(2)], sdom[rng.Intn(len(sdom))]})
		}
	case chainWide:
		const nQI = 8
		attrs := make([]table.Attribute, 0, nQI+1)
		hs = hierarchy.Set{}
		for i := 0; i < nQI; i++ {
			name := fmt.Sprintf("q%d", i)
			attrs = append(attrs, table.Attribute{Name: name, Kind: table.Numeric, Min: 0, Max: 1 << 20})
			hs[name] = hierarchy.MustInterval(name, []int{1, 2, 0})
		}
		attrs = append(attrs, table.Attribute{Name: "sens", Kind: table.Categorical, Domain: []string{"a", "b", "c"}})
		tab = table.New(chainSchema(attrs))
		// Over 256 distinct values per column, each held by one to three
		// rows: below the top level, 8 such columns overflow a uint64.
		for r := 300 + rng.Intn(60); r > 0; r-- {
			row := make(table.Row, nQI+1)
			for c := 0; c < nQI; c++ {
				row[c] = strconv.Itoa(rng.Intn(1 << 20))
			}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				row := slices.Clone(row)
				row[nQI] = []string{"a", "b", "c"}[rng.Intn(3)]
				tab.MustAppend(row)
			}
		}
		rng.Shuffle(tab.Len(), func(i, j int) { tab.Rows[i], tab.Rows[j] = tab.Rows[j], tab.Rows[i] })
	}
	ch := appendChain{schema: tab.Schema, hs: hs, levels: randLevels(rng, hs, nil)}
	if shape == chainWide {
		for name := range ch.levels {
			ch.levels[name] = rng.Intn(2)
		}
	}
	rest := tab.Rows[1+rng.Intn(tab.Len()):]
	ch.base = tab.Rows[:tab.Len()-len(rest)]
	for n := 1 + rng.Intn(4); n > 0 && len(rest) > 0; n-- {
		size := len(rest)
		if n > 1 {
			size = 1 + rng.Intn(len(rest))
		}
		ch.batches = append(ch.batches, rest[:size])
		rest = rest[size:]
	}
	return ch
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}

func chainSchema(attrs []table.Attribute) *table.Schema {
	s, err := table.NewSchema(attrs, "sens")
	if err != nil {
		panic(err)
	}
	return s
}

// carryCounts tallies what a run of chains covered: appends whose source
// was indexed, by whether they carried its index; appends that opened new
// keys or brought new sensitive values; and appends under the byte-tuple
// key fallback and under a sensitive dictionary above
// bucket.MaxDenseSensitive.
type carryCounts struct {
	carried, dropped, newKeys, newValues, fallback, sparse int
}

// runChain appends ch's batches one at a time through bucket.AppendRows
// and checks each result against a rebuild of the grown table: the same
// buckets, and bit for bit the same Size, MinEntropy and disclosure
// series. indexAt is the step whose bucketization is indexed by a class
// scan (0 for the base, before the first append; -1 for none), so the
// chain's appends carry an index from there on. A carried index must be,
// array for array, what a complete ClassScan publishes on the same
// buckets; with exactHash (HistogramHash, under which nothing collides) an
// indexed source must always carry.
func runChain(t *testing.T, label string, ch appendChain, indexAt int, exactHash bool, counts *carryCounts) {
	t.Helper()
	tab := table.New(ch.schema)
	for _, r := range ch.base {
		tab.MustAppend(r)
	}
	enc := tab.Encode()
	chs, err := bucket.CompileHierarchies(enc, ch.hs)
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	bz, err := bucket.FromGeneralizationEncoded(enc.Snapshot(), chs, ch.levels)
	if err != nil {
		t.Fatalf("%s: base scan: %v", label, err)
	}
	if indexAt == 0 {
		scanClasses(bz)
	}
	for step, batch := range ch.batches {
		label := fmt.Sprintf("%s step %d", label, step+1)
		delta, err := enc.Append(batch)
		if err != nil {
			t.Fatalf("%s: append: %v", label, err)
		}
		for name, c := range chs {
			col := ch.schema.Index(name)
			if delta.NewValueCount(col) == 0 {
				continue
			}
			if chs[name], err = c.Extend(ch.hs[name], enc.Dicts[col].Values()); err != nil {
				t.Fatalf("%s: extend %s: %v", label, name, err)
			}
		}
		snap := enc.Snapshot()
		next, err := bucket.AppendRows(bz, snap, chs, ch.levels, delta.Start)
		if err != nil {
			t.Fatalf("%s: AppendRows: %v", label, err)
		}
		want, err := bucket.FromGeneralizationEncoded(snap, chs, ch.levels)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", label, err)
		}
		oracle.RequireIdentical(t, want, next, label)
		if len(next.Buckets) > len(bz.Buckets) {
			counts.newKeys++
		}
		if delta.NewValueCount(ch.schema.SensitiveIndex) > 0 {
			counts.newValues++
		}
		if packed, err := bucket.Packable(snap, chs, ch.levels); err != nil {
			t.Fatal(err)
		} else if !packed {
			counts.fallback++
		}
		if snap.SensitiveDict().Len() > bucket.MaxDenseSensitive {
			counts.sparse++
		}

		switch {
		case !bz.Indexed() && next.Indexed():
			t.Fatalf("%s: an unindexed source gave an indexed result", label)
		case bz.Indexed() && next.Indexed():
			counts.carried++
			gotFirst, gotHash, gotOf := scanClasses(next)
			first, hash, of := scanClasses(&bucket.Bucketization{Buckets: next.Buckets})
			if !slices.Equal(gotFirst, first) || !slices.Equal(gotHash, hash) || !slices.Equal(gotOf, of) {
				t.Fatalf("%s: carried index first %v hash %x of %v; a class scan gives %v %x %v",
					label, gotFirst, gotHash, gotOf, first, hash, of)
			}
		case bz.Indexed():
			counts.dropped++
			if exactHash {
				t.Fatalf("%s: the source's index was not carried", label)
			}
		}

		if got, w := next.Size(), want.Size(); got != w {
			t.Fatalf("%s: Size %d, rebuild %d", label, got, w)
		}
		if got, w := next.MinEntropy(), want.MinEntropy(); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: MinEntropy %v, rebuild %v", label, got, w)
		}
		// The series run over next itself reads its carried index; an
		// unindexed result is read through a copy, so the chain stays
		// unindexed.
		read := next
		if !next.Indexed() {
			read = &bucket.Bucketization{Buckets: next.Buckets}
		}
		const k = 3
		for _, opt := range []core.Options{{}, {ForbidSameBucketAntecedent: true}} {
			if _, err := core.NewEngine().MaxDisclosureOpt(read, k, opt); err != nil {
				t.Fatalf("%s: disclosure: %v", label, err)
			}
			if _, err := core.NewEngine().MaxDisclosureOpt(want, k, opt); err != nil {
				t.Fatalf("%s: rebuild disclosure: %v", label, err)
			}
		}
		for v := 0; v < bucket.SeriesVariants; v++ {
			got, w := read.DisclosureSeries(v), want.DisclosureSeries(v)
			if len(got) != k+1 || len(w) != k+1 {
				t.Fatalf("%s: series %d has %d and %d entries, want %d", label, v, len(got), len(w), k+1)
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(w[j]) {
					t.Fatalf("%s: series %d: %v, rebuild %v", label, v, got, w)
				}
			}
		}
		if indexAt == step+1 {
			scanClasses(next)
		}
		bz = next
	}
}

// runChains draws chains of every shape, each indexed at a random step or
// never, and runs them.
func runChains(t *testing.T, seed int64, exactHash bool) carryCounts {
	cases := 120
	if testing.Short() {
		cases = 30
	}
	rng := rand.New(rand.NewSource(seed))
	var counts carryCounts
	for i := 0; i < cases; i++ {
		ch := randChain(rng, i%chainShapes)
		indexAt := rng.Intn(len(ch.batches)+2) - 1
		label := fmt.Sprintf("case %d (shape %d, levels %v, indexed at %d)", i, i%chainShapes, ch.levels, indexAt)
		runChain(t, label, ch, indexAt, exactHash, &counts)
	}
	return counts
}

// TestAppendChainCarriesDerivedState checks the state AppendRows carries
// forward, over randomized chains of appends: the class index, the size,
// the minimum entropy, and the buckets' memoized hashes and entropies,
// which MinEntropy and both disclosure series read. Under a weak bucket
// hash, collisions are common: the carry must then either give up or
// still match a class scan, which splits a histogram's buckets over
// several classes on a collision.
func TestAppendChainCarriesDerivedState(t *testing.T) {
	t.Run("HistogramHash", func(t *testing.T) {
		c := runChains(t, 31, true)
		if c.carried == 0 || c.newKeys == 0 || c.newValues == 0 || c.fallback == 0 || c.sparse == 0 {
			t.Fatalf("coverage %+v: some append kind never ran", c)
		}
	})
	t.Run("weak hash", func(t *testing.T) {
		bucket.SetBucketHash(t, func(hist []int) uint64 { return 1 + bucket.HistogramHash(hist)%5 })
		counts := runChains(t, 32, false)
		if counts.carried == 0 || counts.dropped == 0 {
			t.Fatalf("weak hash: %d indexes carried and %d dropped; the run must see both", counts.carried, counts.dropped)
		}
	})
}

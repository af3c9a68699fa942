package bucket_test

import (
	"slices"
	"sync"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/table"
)

// testRow is a MINIMIZE1-shaped row of the given width: u[0] = 1 and
// u[j] = 1/(j+1), so rows of different widths agree on their common
// prefix, as rows of one histogram do.
func testRow(width int) []float64 {
	u := make([]float64, width)
	for j := range u {
		u[j] = 1 / float64(j+1)
	}
	return u
}

// TestM1RowLongestWins: a bucket holds no row until one is published; a
// longer row replaces a shorter one, a shorter one never replaces a
// longer one, and M1Row answers only a width the held row covers.
func TestM1RowLongestWins(t *testing.T) {
	b := bucket.FromValues([]string{"a", "a", "b"}).Buckets[0]
	if u := b.M1Row(0); u != nil {
		t.Fatalf("fresh bucket holds row %v", u)
	}
	short, long := testRow(3), testRow(6)
	b.PublishM1Row(short)
	if u := b.M1Row(3); len(u) != 3 {
		t.Fatalf("after a 3-wide publish, M1Row(3) = %v", u)
	}
	if u := b.M1Row(4); u != nil {
		t.Fatalf("a 3-wide row answered width 4: %v", u)
	}
	b.PublishM1Row(long)
	if u := b.M1Row(4); len(u) != 6 {
		t.Fatalf("a longer row did not replace the shorter: M1Row(4) = %v", u)
	}
	b.PublishM1Row(testRow(2))
	b.PublishM1Row(testRow(6))
	if u := b.M1Row(0); &u[0] != &long[0] {
		t.Fatalf("a shorter or equal row replaced the longer one: %v", u)
	}
}

// TestM1RowRacingPublishers races 32 publishers at mixed widths on one
// bucket. Each then reads back the width it published and must get a row
// at least that wide, and the bucket must end up holding the widest.
func TestM1RowRacingPublishers(t *testing.T) {
	for round := 0; round < 20; round++ {
		b := bucket.FromValues([]string{"a", "b", "b", "c"}).Buckets[0]
		const workers = 32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(width int) {
				defer wg.Done()
				<-start
				b.PublishM1Row(testRow(width))
				if u := b.M1Row(width); len(u) < width || !slices.Equal(u[:width], testRow(width)) {
					t.Errorf("publisher of width %d read back %v", width, u)
				}
			}(1 + w%12)
		}
		close(start)
		wg.Wait()
		if u := b.M1Row(0); len(u) != 12 {
			t.Fatalf("round %d: bucket holds a %d-wide row, want the widest (12)", round, len(u))
		}
	}
}

// TestCoarseningAndAppendCarryRows: a coarsening that only renames a
// fine bucket (a coarse group of one) gives the coarse bucket the fine
// bucket's row, and a merged coarse bucket starts with none. An append
// shares its untouched buckets, rows included, and its rebuilt and new
// buckets start with none.
func TestCoarseningAndAppendCarryRows(t *testing.T) {
	base := paperTable(t)
	enc := base.Encode()
	chs, err := bucket.CompileHierarchies(enc, paperHierarchies())
	if err != nil {
		t.Fatal(err)
	}
	fineLevels := bucket.Levels{"Zip": 0, "Age": 0, "Sex": 0}
	fine, idx, err := bucket.ScanIndexed(enc.Snapshot(), chs, fineLevels, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[*bucket.Bucket][]float64, len(fine.Buckets))
	for i, b := range fine.Buckets {
		rows[b] = testRow(2 + i%4)
		b.PublishM1Row(rows[b])
	}

	coarse, _, err := bucket.CoarsenIndexed(fine, idx, enc.Snapshot(), chs, bucket.Levels{"Zip": 0, "Age": 1, "Sex": 0})
	if err != nil {
		t.Fatal(err)
	}
	renamed := 0
	for _, c := range coarse.Buckets {
		var src *bucket.Bucket
		for _, f := range fine.Buckets {
			if len(f.Tuples) == len(c.Tuples) && &f.Tuples[0] == &c.Tuples[0] {
				src = f
			}
		}
		u := c.M1Row(0)
		switch {
		case src != nil:
			renamed++
			if len(u) == 0 || &u[0] != &rows[src][0] {
				t.Errorf("renamed bucket %q holds row %v, its fine bucket %q %v", c.Key, u, src.Key, rows[src])
			}
		case u != nil:
			t.Errorf("merged bucket %q holds row %v", c.Key, u)
		}
	}
	if renamed == 0 || renamed == len(coarse.Buckets) {
		t.Fatalf("%d of %d coarse buckets renamed; the test needs both kinds", renamed, len(coarse.Buckets))
	}

	// One row lands in Bob's bucket, one opens a new key.
	delta, err := enc.Append([]table.Row{{"14850", "23", "M", "flu"}, {"14853", "23", "M", "mumps"}})
	if err != nil {
		t.Fatal(err)
	}
	next, err := bucket.AppendRows(fine, enc.Snapshot(), chs, fineLevels, delta.Start)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, b := range next.Buckets {
		u := b.M1Row(0)
		if want, ok := rows[b]; ok {
			shared++
			if len(u) == 0 || &u[0] != &want[0] {
				t.Errorf("untouched bucket %q holds row %v, want %v", b.Key, u, want)
			}
		} else if u != nil {
			t.Errorf("rebuilt or new bucket %q holds row %v", b.Key, u)
		}
	}
	if shared != len(fine.Buckets)-1 || len(next.Buckets) != len(fine.Buckets)+1 {
		t.Fatalf("%d of %d buckets shared after appending to one of %d and adding one", shared, len(next.Buckets), len(fine.Buckets))
	}
}

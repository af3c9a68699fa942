package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

func encodedFixture(t *testing.T, rows int) *Table {
	t.Helper()
	s, err := NewSchema([]Attribute{
		{Name: "Zip", Kind: Numeric, Min: 0, Max: 99999},
		{Name: "Sex", Kind: Categorical, Domain: []string{"M", "F"}},
		{Name: "Disease", Kind: Categorical, Domain: []string{"flu", "mumps", "cold"}},
	}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	tab := New(s)
	diseases := []string{"flu", "mumps", "cold"}
	sexes := []string{"M", "F"}
	for i := 0; i < rows; i++ {
		tab.MustAppend(Row{
			fmt.Sprintf("%d", 14850+(i%7)),
			sexes[i%2],
			diseases[i%3],
		})
	}
	return tab
}

// TestEncodeRoundTrip pins the core invariant: decoding every code cell
// reproduces the exact original string.
func TestEncodeRoundTrip(t *testing.T) {
	tab := encodedFixture(t, 53)
	e := tab.Encode()
	if e.Rows() != tab.Len() {
		t.Fatalf("Rows = %d, want %d", e.Rows(), tab.Len())
	}
	for c := range e.Cols {
		for i := range e.Cols[c] {
			if got := e.Dicts[c].Value(e.Cols[c][i]); got != tab.Rows[i][c] {
				t.Fatalf("col %d row %d: decoded %q, want %q", c, i, got, tab.Rows[i][c])
			}
		}
	}
}

// TestEncodeDeterministic pins first-appearance code assignment: encoding
// the same table twice yields identical dictionaries and columns.
func TestEncodeDeterministic(t *testing.T) {
	tab := encodedFixture(t, 31)
	a, b := tab.Encode(), tab.Encode()
	for c := range a.Dicts {
		if !reflect.DeepEqual(a.Dicts[c].Values(), b.Dicts[c].Values()) {
			t.Fatalf("col %d dict differs between encodings", c)
		}
		if !reflect.DeepEqual(a.Cols[c], b.Cols[c]) {
			t.Fatalf("col %d codes differ between encodings", c)
		}
	}
}

func TestEncodedAccessors(t *testing.T) {
	tab := encodedFixture(t, 30)
	e := tab.Encode()
	if got := e.SensitiveDict().Len(); got != 3 {
		t.Fatalf("sensitive cardinality = %d, want 3", got)
	}
	for i, code := range e.SensitiveCol() {
		if got := e.SensitiveDict().Value(code); got != tab.SensitiveValue(i) {
			t.Fatalf("sensitive row %d: decoded %q, want %q", i, got, tab.SensitiveValue(i))
		}
	}
	cards := e.Cardinalities()
	want := map[string]int{"Zip": 7, "Sex": 2, "Disease": 3}
	if !reflect.DeepEqual(cards, want) {
		t.Fatalf("Cardinalities = %v, want %v", cards, want)
	}
	if _, ok := e.Dicts[1].Code("M"); !ok {
		t.Fatal("Code(M) not found")
	}
	if _, ok := e.Dicts[1].Code("nope"); ok {
		t.Fatal("Code(nope) unexpectedly found")
	}
}

// encodeRowMajor is the encoder Encode replaced and now its oracle: one
// pass over the rows, interning every column of a row before moving to
// the next row.
func encodeRowMajor(t *Table) *Encoded {
	nCols := len(t.Schema.Attrs)
	e := &Encoded{Table: t, Dicts: make([]*Dict, nCols), Cols: make([][]uint32, nCols)}
	for c := 0; c < nCols; c++ {
		e.Dicts[c] = newDict(16)
		e.Cols[c] = make([]uint32, len(t.Rows))
	}
	for i, r := range t.Rows {
		for c, v := range r {
			e.Cols[c][i] = e.Dicts[c].intern(v)
		}
	}
	return e
}

// mixedCardinalityTable builds a table whose columns range from 2 to
// about rows distinct values, and whose last row carries a value in every
// column but the sensitive one that no earlier row has.
func mixedCardinalityTable(t *testing.T, rows int, seed int64) *Table {
	t.Helper()
	s, err := NewSchema([]Attribute{
		{Name: "ID", Kind: Numeric, Min: 0, Max: 1 << 30},
		{Name: "Zip", Kind: Numeric, Min: 0, Max: 99999},
		{Name: "Sex", Kind: Categorical, Domain: []string{"M", "F", "X"}},
		{Name: "Disease", Kind: Categorical, Domain: []string{"flu", "mumps", "cold", "gout", "ache"}},
	}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tab := New(s)
	for i := 0; i < rows-1; i++ {
		tab.MustAppend(Row{
			strconv.Itoa(rng.Intn(1 << 29)),
			strconv.Itoa(10000 + rng.Intn(400)),
			s.Attrs[2].Domain[rng.Intn(2)],
			s.Attrs[3].Domain[rng.Intn(len(s.Attrs[3].Domain))],
		})
	}
	tab.MustAppend(Row{strconv.Itoa(1<<29 + 1), "99999", "X", "flu"})
	return tab
}

// TestEncodeMatchesSerial pins the column-parallel Encode to the
// row-major oracle: dictionaries in code order, code columns and the
// master view's Code lookups, on both sides of the parallel threshold at
// GOMAXPROCS 4.
func TestEncodeMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, rows := range []int{1, parallelRows - 1, parallelRows, 20011} {
		tab := mixedCardinalityTable(t, rows, int64(rows))
		want, got := encodeRowMajor(tab), tab.Encode()
		label := fmt.Sprintf("%d rows", rows)
		requireSameEncoding(t, want, got, label)
		for c, d := range got.Dicts {
			for code, v := range d.Values() {
				if gc, ok := d.Code(v); !ok || int(gc) != code {
					t.Fatalf("%s: column %d Code(%q) = %d, %v; want %d", label, c, v, gc, ok, code)
				}
			}
			if _, ok := d.Code("absent"); ok {
				t.Fatalf("%s: column %d Code(absent) found", label, c)
			}
		}
		last := got.Rows() - 1
		for c := 0; c < 3; c++ {
			if got.Cols[c][last] != uint32(got.Dicts[c].Len()-1) {
				t.Fatalf("%s: column %d's last-row value is not the last code", label, c)
			}
		}
	}
}

// TestEncodedFromPartsRoundTrip rebuilds views from Encode's parts on
// both sides of the parallel threshold at GOMAXPROCS 4: the row chunks
// must cover every row exactly once, each decoding to its original
// strings.
func TestEncodedFromPartsRoundTrip(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, rows := range []int{1, parallelRows - 1, parallelRows, 20011} {
		tab := mixedCardinalityTable(t, rows, int64(rows))
		enc := tab.Encode()
		dicts := make([][]string, len(enc.Dicts))
		for c, d := range enc.Dicts {
			dicts[c] = d.Values()
		}
		got, err := NewEncodedFromParts(tab.Schema, dicts, enc.Cols)
		if err != nil {
			t.Fatalf("%d rows: %v", rows, err)
		}
		if !reflect.DeepEqual(got.Table.Rows, tab.Rows) {
			t.Fatalf("%d rows: rebuilt rows differ from the table's", rows)
		}
	}
}

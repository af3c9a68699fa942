package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

func appendSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Attribute{
		{Name: "Age", Kind: Numeric, Min: 0, Max: 99},
		{Name: "City", Kind: Categorical, Domain: []string{"ann", "bly", "car", "dud"}},
		{Name: "Disease", Kind: Categorical, Domain: []string{"flu", "cold", "ache", "gout"}},
	}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randRows(rng *rand.Rand, s *Schema, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			strconv.Itoa(rng.Intn(100)),
			s.Attrs[1].Domain[rng.Intn(len(s.Attrs[1].Domain))],
			s.Attrs[2].Domain[rng.Intn(len(s.Attrs[2].Domain))],
		}
	}
	return rows
}

// requireSameEncoding asserts two encoded views agree byte-for-byte:
// dictionaries, code columns and decoded rows.
func requireSameEncoding(t *testing.T, want, got *Encoded, label string) {
	t.Helper()
	if want.Rows() != got.Rows() {
		t.Fatalf("%s: %d rows, want %d", label, got.Rows(), want.Rows())
	}
	for c := range want.Dicts {
		if !reflect.DeepEqual(want.Dicts[c].Values(), got.Dicts[c].Values()) {
			t.Fatalf("%s: column %d dict %v, want %v", label, c, got.Dicts[c].Values(), want.Dicts[c].Values())
		}
		if !reflect.DeepEqual(want.Cols[c], got.Cols[c]) {
			t.Fatalf("%s: column %d codes differ", label, c)
		}
	}
}

// TestEncodedAppendMatchesRebuild is the append-parity property at the
// encoding layer: Encode(A) then Append(B) must be byte-identical —
// dictionaries, code order, code columns — to Encode(A ++ B).
func TestEncodedAppendMatchesRebuild(t *testing.T) {
	s := appendSchema(t)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 50; i++ {
		base := randRows(rng, s, 1+rng.Intn(40))
		extra := randRows(rng, s, rng.Intn(30))

		grown := New(s)
		for _, r := range base {
			grown.MustAppend(r)
		}
		enc := grown.Encode()
		delta, err := enc.Append(extra)
		if err != nil {
			t.Fatalf("case %d: append: %v", i, err)
		}
		if delta.Start != len(base) || delta.Rows != len(base)+len(extra) {
			t.Fatalf("case %d: delta %+v, want start %d rows %d", i, delta, len(base), len(base)+len(extra))
		}

		concat := New(s)
		for _, r := range append(append([]Row{}, base...), extra...) {
			concat.MustAppend(r)
		}
		requireSameEncoding(t, concat.Encode(), enc, fmt.Sprintf("case %d", i))

		// The delta's new codes must be exactly the dictionary suffix
		// beyond the base encoding.
		baseTab := New(s)
		for _, r := range base {
			baseTab.MustAppend(r)
		}
		baseEnc := baseTab.Encode()
		for c := range enc.Dicts {
			gained := enc.Dicts[c].Len() - baseEnc.Dicts[c].Len()
			if gained != delta.NewValueCount(c) {
				t.Fatalf("case %d: column %d reports %d new codes, dict gained %d",
					i, c, delta.NewValueCount(c), gained)
			}
			for j, code := range delta.NewCodes[c] {
				if int(code) != baseEnc.Dicts[c].Len()+j {
					t.Fatalf("case %d: column %d new code %d out of order", i, c, code)
				}
			}
		}
	}

	// One base above the parallel threshold, encoded column-parallel at
	// GOMAXPROCS 4, with ages the append then extends.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := randRows(rng, s, 2*parallelRows)
	for _, r := range base {
		r[0] = strconv.Itoa(rng.Intn(50))
	}
	extra := randRows(rng, s, 500)
	grown := New(s)
	for _, r := range base {
		grown.MustAppend(r)
	}
	enc := grown.Encode()
	delta, err := enc.Append(extra)
	if err != nil {
		t.Fatalf("large case: append: %v", err)
	}
	if delta.NewValueCount(0) == 0 {
		t.Fatal("large case: the append introduced no new age")
	}
	concat := New(s)
	for _, r := range append(append([]Row{}, base...), extra...) {
		concat.MustAppend(r)
	}
	requireSameEncoding(t, concat.Encode(), enc, "large case")
}

// TestSnapshotPinnedAcrossAppend pins the copy-on-write contract: a
// snapshot taken before an append keeps its row count, codes, dictionary
// lengths and decoded strings, while the master moves on.
func TestSnapshotPinnedAcrossAppend(t *testing.T) {
	s := appendSchema(t)
	rng := rand.New(rand.NewSource(43))
	tab := New(s)
	for _, r := range randRows(rng, s, 25) {
		tab.MustAppend(r)
	}
	enc := tab.Encode()
	snap := enc.Snapshot()
	wantRows := make([]Row, len(tab.Rows))
	copy(wantRows, tab.Rows)
	wantCards := snap.Cardinalities()

	for round := 0; round < 5; round++ {
		if _, err := enc.Append(randRows(rng, s, 17)); err != nil {
			t.Fatal(err)
		}
	}
	if snap.Rows() != 25 || snap.Table.Len() != 25 {
		t.Fatalf("snapshot grew to %d/%d rows", snap.Rows(), snap.Table.Len())
	}
	if !reflect.DeepEqual(snap.Cardinalities(), wantCards) {
		t.Fatalf("snapshot cardinalities drifted: %v, want %v", snap.Cardinalities(), wantCards)
	}
	for i, r := range wantRows {
		for c := range r {
			if got := snap.Dicts[c].Value(snap.Cols[c][i]); got != r[c] {
				t.Fatalf("snapshot row %d col %d decodes %q, want %q", i, c, got, r[c])
			}
		}
	}
	// Snapshot dictionaries answer Code without the shared index map.
	if c, ok := snap.Dicts[1].Code(wantRows[0][1]); !ok || snap.Dicts[1].Value(c) != wantRows[0][1] {
		t.Fatalf("snapshot Code lookup failed for %q", wantRows[0][1])
	}
	if enc.Rows() != 25+5*17 {
		t.Fatalf("master has %d rows, want %d", enc.Rows(), 25+5*17)
	}
}

// TestEncodedAppendRejectsInvalid checks a bad batch is rejected whole:
// validation errors name the offending row and nothing is mutated.
func TestEncodedAppendRejectsInvalid(t *testing.T) {
	s := appendSchema(t)
	tab := New(s)
	tab.MustAppend(Row{"30", "ann", "flu"})
	enc := tab.Encode()
	cases := []struct {
		name string
		rows []Row
	}{
		{"short row", []Row{{"30", "ann"}}},
		{"bad numeric", []Row{{"30", "ann", "flu"}, {"abc", "bly", "cold"}}},
		{"out of domain", []Row{{"30", "zzz", "flu"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := enc.Append(tc.rows); err == nil {
				t.Fatal("append accepted an invalid batch")
			}
			if enc.Rows() != 1 || enc.Table.Len() != 1 {
				t.Fatalf("rejected append mutated the view: %d rows", enc.Rows())
			}
		})
	}
}

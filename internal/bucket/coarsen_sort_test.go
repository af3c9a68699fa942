package bucket_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/table"
)

// CoarsenIndexed skips its final key sort when the fine→coarse re-key map is
// monotone — the group keys already ascend in discovery order, which is
// the fine bucketization's sorted key order. These tests pin parity
// through both branches: a monotone re-key must take the skip and stay
// byte-identical, an order-reversing re-key must take the sort.

// discoveryKeys replays CoarsenIndexed's pass-1 group discovery: the
// coarse keys in order of each group's first fine bucket.
func discoveryKeys(t *testing.T, fine *bucket.Bucketization, enc *table.Encoded, chs hierarchy.CompiledSet, levels bucket.Levels) []string {
	t.Helper()
	keys, err := bucket.DiscoveryKeys(fine, enc, chs, levels)
	if err != nil {
		t.Fatalf("discoveryKeys: %v", err)
	}
	return keys
}

// TestCoarsenSortSkipMonotone drives the skip branch: an identity
// coarsen (same levels) re-keys every fine bucket to itself, so the
// discovery order is already sorted and the result must equal the fine
// bucketization byte for byte.
func TestCoarsenSortSkipMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		tab, hs := randCase(rng)
		enc := tab.Encode()
		chs, err := bucket.CompileHierarchies(enc, hs)
		if err != nil {
			t.Fatalf("case %d: compile: %v", i, err)
		}
		levels := randLevels(rng, hs, nil)
		fine, err := bucket.FromGeneralizationEncoded(enc, chs, levels)
		if err != nil {
			t.Fatalf("case %d: fine: %v", i, err)
		}
		if keys := discoveryKeys(t, fine, enc, chs, levels); !sort.StringsAreSorted(keys) {
			t.Fatalf("case %d: identity re-key is not monotone: %v", i, keys)
		}
		got, err := bucket.CoarsenInto(fine, enc, chs, levels)
		if err != nil {
			t.Fatalf("case %d: coarsen: %v", i, err)
		}
		oracle.RequireIdentical(t, fine, got, fmt.Sprintf("case %d identity %v", i, levels))
	}
}

// TestCoarsenSortSkipReversed drives the sort branch: a level-1 map
// that reverses the alphabet makes the fine keys ascend (a, b, c, d)
// while their coarse keys descend (z, y, x, w), so the skip must not
// fire and the sort must restore canonical order.
func TestCoarsenSortSkipReversed(t *testing.T) {
	domain := []string{"a", "b", "c", "d"}
	h := hierarchy.MustLevelled("q0", domain, []map[string]string{
		{"a": "z", "b": "y", "c": "x", "d": "w"},
		{"a": "*", "b": "*", "c": "*", "d": "*"},
	})
	s, err := table.NewSchema([]table.Attribute{
		{Name: "q0", Kind: table.Categorical, Domain: domain},
		{Name: "sens", Kind: table.Categorical, Domain: []string{"s0", "s1"}},
	}, "sens")
	if err != nil {
		t.Fatal(err)
	}
	tab := table.New(s)
	rng := rand.New(rand.NewSource(3))
	for r := 0; r < 40; r++ {
		tab.MustAppend(table.Row{
			domain[rng.Intn(len(domain))],
			[]string{"s0", "s1"}[rng.Intn(2)],
		})
	}
	enc := tab.Encode()
	hs := hierarchy.Set{"q0": h}
	chs, err := bucket.CompileHierarchies(enc, hs)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := bucket.FromGeneralizationEncoded(enc, chs, bucket.Levels{"q0": 0})
	if err != nil {
		t.Fatal(err)
	}
	coarse := bucket.Levels{"q0": 1}
	if keys := discoveryKeys(t, fine, enc, chs, coarse); sort.StringsAreSorted(keys) {
		t.Fatalf("reversing re-key came out monotone (%v); the case no longer exercises the sort branch", keys)
	}
	want, err := oracle.Bucketize(tab, hs, coarse)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bucket.CoarsenInto(fine, enc, chs, coarse)
	if err != nil {
		t.Fatal(err)
	}
	oracle.RequireIdentical(t, want, got, "reversed re-key")
}

// TestCoarsenSortSkipRandomBothBranches sweeps random coarsens, checks
// parity on every one, and requires the corpus to hit both branches —
// so neither path can silently lose its coverage to a corpus shift.
func TestCoarsenSortSkipRandomBothBranches(t *testing.T) {
	cases := 120
	if testing.Short() {
		cases = 40
	}
	rng := rand.New(rand.NewSource(17))
	sorted, unsorted := 0, 0
	for i := 0; i < cases; i++ {
		tab, hs := randCase(rng)
		enc := tab.Encode()
		chs, err := bucket.CompileHierarchies(enc, hs)
		if err != nil {
			t.Fatalf("case %d: compile: %v", i, err)
		}
		levels := randLevels(rng, hs, nil)
		fineLevels := randLevels(rng, hs, levels)
		fine, err := bucket.FromGeneralizationEncoded(enc, chs, fineLevels)
		if err != nil {
			t.Fatalf("case %d: fine: %v", i, err)
		}
		if sort.StringsAreSorted(discoveryKeys(t, fine, enc, chs, levels)) {
			sorted++
		} else {
			unsorted++
		}
		want, err := oracle.Bucketize(tab, hs, levels)
		if err != nil {
			t.Fatalf("case %d: want: %v", i, err)
		}
		got, err := bucket.CoarsenInto(fine, enc, chs, levels)
		if err != nil {
			t.Fatalf("case %d: coarsen: %v", i, err)
		}
		oracle.RequireIdentical(t, want, got,
			fmt.Sprintf("case %d coarsen %v -> %v", i, fineLevels, levels))
	}
	if sorted == 0 || unsorted == 0 {
		t.Fatalf("corpus covered only one branch in %d cases: %d monotone (skip), %d unsorted (sort)",
			cases, sorted, unsorted)
	}
}

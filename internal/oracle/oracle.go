// Package oracle holds the slow, obviously correct reference
// implementations that the production fast paths are tested against.
// Only _test.go files import it: a guard test fails if any shipped
// binary (the root package, cmd/..., examples/...) links it.
//
// Bucketize is the row-by-row string-path bucketizer. It shares no code
// with the encoded scan, the coarsening derivation or the append patch in
// internal/bucket: it generalizes every row's values through the
// hierarchies' Generalize, groups rows by the joined key strings, and
// builds the result through the exported bucket.FromTupleGroups.
//
// NaiveMinimal is the lattice search with no pruning: it evaluates every
// node and keeps the pairwise-minimal satisfying ones, so unlike the
// production searches in internal/lattice it does not rely on the
// predicate being monotone.
package oracle

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/table"
)

// Bucketize partitions t by the generalized values of its quasi-
// identifiers: two tuples share a bucket iff they agree on every QI
// attribute after generalization to the given level (absent attributes
// stay at level 0). Bucket keys are the generalized values joined by "|",
// buckets are in key order and tuples in row order — the contract every
// production bucketization must reproduce byte for byte.
func Bucketize(t *table.Table, hs hierarchy.Set, levels bucket.Levels) (*bucket.Bucketization, error) {
	s := t.Schema
	for name, lvl := range levels {
		col := s.Index(name)
		h := hs[name]
		switch {
		case col < 0:
			return nil, fmt.Errorf("oracle: levels name unknown attribute %q", name)
		case col == s.SensitiveIndex:
			return nil, fmt.Errorf("oracle: levels name the sensitive attribute %q", name)
		case lvl == 0:
		case h == nil:
			return nil, fmt.Errorf("oracle: no hierarchy for attribute %q", name)
		case lvl < 0 || lvl >= h.Levels():
			return nil, fmt.Errorf("oracle: level %d for attribute %q outside [0, %d)", lvl, name, h.Levels())
		}
	}
	qi := s.QuasiIdentifiers()
	groups := make(map[string][]int)
	parts := make([]string, len(qi))
	for row := 0; row < t.Len(); row++ {
		for i, col := range qi {
			name := s.Attrs[col].Name
			v := t.Value(row, col)
			if lvl := levels[name]; lvl != 0 {
				g, err := hs[name].Generalize(v, lvl)
				if err != nil {
					return nil, fmt.Errorf("oracle: row %d: %w", row, err)
				}
				v = g
			}
			parts[i] = v
		}
		key := strings.Join(parts, "|")
		groups[key] = append(groups[key], row)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tuples := make([][]int, len(keys))
	for i, k := range keys {
		tuples[i] = groups[k]
	}
	return bucket.FromTupleGroups(t, keys, tuples)
}

// RequireIdentical fails the test unless two bucketizations agree on
// everything observable: bucket count and order, keys, sizes and
// representative rows, tuple ids and their order, the sensitive frequency
// table, the histogram and its signature.
func RequireIdentical(t testing.TB, want, got *bucket.Bucketization, label string) {
	t.Helper()
	if len(want.Buckets) != len(got.Buckets) {
		t.Fatalf("%s: %d buckets, want %d", label, len(got.Buckets), len(want.Buckets))
	}
	for i := range want.Buckets {
		w, g := want.Buckets[i], got.Buckets[i]
		if w.Key != g.Key {
			t.Fatalf("%s: bucket %d key %q, want %q", label, i, g.Key, w.Key)
		}
		if w.Size() != g.Size() || w.Rep() != g.Rep() {
			t.Fatalf("%s: bucket %d (%s) size %d from row %d, want %d from %d", label, i, w.Key, g.Size(), g.Rep(), w.Size(), w.Rep())
		}
		if !reflect.DeepEqual(w.Tuples, g.Tuples) {
			t.Fatalf("%s: bucket %d (%s) tuples %v, want %v", label, i, w.Key, g.Tuples, w.Tuples)
		}
		if !reflect.DeepEqual(w.Freq(), g.Freq()) {
			t.Fatalf("%s: bucket %d (%s) freq %v, want %v", label, i, w.Key, g.Freq(), w.Freq())
		}
		if !reflect.DeepEqual(w.Histogram(), g.Histogram()) {
			t.Fatalf("%s: bucket %d (%s) histogram %v, want %v", label, i, w.Key, g.Histogram(), w.Histogram())
		}
		if w.Signature() != g.Signature() {
			t.Fatalf("%s: bucket %d (%s) signature %q, want %q", label, i, w.Key, g.Signature(), w.Signature())
		}
	}
}

// NaiveMinimal evaluates pred on every node of s and returns the
// satisfying nodes no other satisfying node lies below, in the order
// s.All() lists them.
func NaiveMinimal(s lattice.Space, pred lattice.Pred) ([]lattice.Node, error) {
	var sat []lattice.Node
	for _, n := range s.All() {
		ok, err := pred(n)
		if err != nil {
			return nil, err
		}
		if ok {
			sat = append(sat, n)
		}
	}
	var minimal []lattice.Node
	for i, n := range sat {
		isMin := true
		for j, m := range sat {
			if i != j && lattice.Leq(m, n) {
				isMin = false
				break
			}
		}
		if isMin {
			minimal = append(minimal, n)
		}
	}
	return minimal, nil
}

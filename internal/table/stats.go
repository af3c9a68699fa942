package table

import (
	"cmp"
	"slices"
	"strings"
)

// ValueCount pairs a value with its multiplicity.
type ValueCount struct {
	Value string
	Count int
}

// Counts tallies the values of the given column.
func (t *Table) Counts(col int) map[string]int {
	m := make(map[string]int)
	for _, r := range t.Rows {
		m[r[col]]++
	}
	return m
}

// SensitiveCounts tallies the sensitive attribute.
func (t *Table) SensitiveCounts() map[string]int {
	return t.Counts(t.Schema.SensitiveIndex)
}

// SortedCounts returns the column's value counts in decreasing count order,
// breaking ties by value for determinism.
func (t *Table) SortedCounts(col int) []ValueCount {
	return SortCounts(t.Counts(col))
}

// SortCounts converts a count map to a deterministic, decreasing-count
// slice (ties broken by increasing value).
func SortCounts(m map[string]int) []ValueCount {
	out := make([]ValueCount, 0, len(m))
	for v, c := range m {
		out = append(out, ValueCount{Value: v, Count: c})
	}
	slices.SortFunc(out, CompareCounts)
	return out
}

// CompareCounts orders value counts by decreasing count, ties broken by
// increasing value. It is the one order of every frequency table:
// SortCounts here and each bucket's sensitive histogram in
// internal/bucket.
func CompareCounts(a, b ValueCount) int {
	if c := cmp.Compare(b.Count, a.Count); c != 0 {
		return c
	}
	return strings.Compare(a.Value, b.Value)
}

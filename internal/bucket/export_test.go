package bucket

import (
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// Hooks for the external bucket_test package. Its parity tests compare
// against internal/oracle, which imports this package, so they cannot be
// compiled into package bucket itself.

// MaxDenseSensitive is the sensitive cardinality above which groups keep
// sparse histograms.
const MaxDenseSensitive = maxDenseSensitive

// Packable reports whether the QI dimensions at levels pack into one
// uint64 group key; false means the scan takes the byte-tuple fallback.
func Packable(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) (bool, error) {
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return false, err
	}
	return packable(dims), nil
}

// DiscoveryKeys replays CoarsenInto's pass-1 group discovery: the coarse
// keys at levels in order of each group's first fine bucket.
func DiscoveryKeys(fine *Bucketization, enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) ([]string, error) {
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return nil, err
	}
	parts := make([]string, len(dims))
	seen := map[string]bool{}
	var keys []string
	for _, b := range fine.Buckets {
		k := keyString(dims, b.Tuples[0], parts)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys, nil
}

package bucket

import (
	"testing"

	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// Hooks for the external bucket_test package. Its parity tests compare
// against internal/oracle, which imports this package, so they cannot be
// compiled into package bucket itself.

// CheckIndexRows is the row-count guard of every scan, coarsening and
// IndexOf call.
var CheckIndexRows = checkIndexRows

// SetBucketHash makes buckets memoize f's hash of their histograms in
// place of HistogramHash until the test ends; a weak f makes hash
// collisions common. Only buckets that compute their hash meanwhile see
// f, and the test must not run in parallel with others.
func SetBucketHash(t testing.TB, f func([]int) uint64) {
	prev := bucketHash
	bucketHash = f
	t.Cleanup(func() { bucketHash = prev })
}

// CoarsenInto derives the bucketization at the given levels from fine
// through an index built out of fine's tuples (IndexOf), then
// CoarsenIndexed: the path of a caller that holds no index, which the
// parity tests compare against the index a scan or coarsening hands down.
func CoarsenInto(fine *Bucketization, enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) (*Bucketization, error) {
	idx, err := IndexOf(fine, enc.Rows())
	if err != nil {
		return nil, err
	}
	bz, _, err := CoarsenIndexed(fine, idx, enc, chs, levels)
	return bz, err
}

// Packable reports whether the QI dimensions at levels pack into one
// uint64 group key; false means the scan takes the byte-tuple fallback.
func Packable(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) (bool, error) {
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return false, err
	}
	return packable(dims), nil
}

// ScanLimit is ScanIndexed with the direct-addressing limit given: the
// scan addresses a packed key space of at most limit keys through its slot
// table and groups a larger one through its map.
func ScanLimit(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels, limit uint64) (*Bucketization, *Index, error) {
	return scanIndexed(enc, chs, levels, limit, true, nil)
}

// KeySpace returns the packed key space at levels (ok false when keys do
// not pack) and the direct-addressing limit of a full scan of enc.
func KeySpace(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) (space, limit uint64, ok bool, err error) {
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return 0, 0, false, err
	}
	space, ok = keySpace(dims)
	return space, directLimit(enc.Rows()), ok, nil
}

// DiscoveryKeys replays CoarsenIndexed's pass-1 group discovery: the coarse
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
		k := keyString(dims, b.Rep(), parts)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys, nil
}

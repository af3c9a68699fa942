package bucket

import (
	"fmt"
	"math"
)

// This file is the row→bucket index the scan leaves behind and coarsening
// consumes. A scan's second pass writes every row's bucket position into
// its per-row group-id array, so the array it already keeps becomes the
// index (4 bytes a row). Coarsening reads it to scatter merged rows in one
// ascending pass, and hands its children an index of its own. Indexes
// derived from one root share the root's row array: a derived index adds
// only a root-bucket → bucket map, so a planned sweep pays the per-row
// array once however many nodes it derives.

// maxIndexRows bounds the tables a scan or coarsening accepts: an index
// stores bucket positions as int32, and a table has at least as many
// rows as buckets.
const maxIndexRows = math.MaxInt32

// checkIndexRows rejects a table too large for an int32 row index.
func checkIndexRows(rows int) error {
	if rows > maxIndexRows {
		return fmt.Errorf("bucket: table of %d rows exceeds the %d rows a row index holds", rows, maxIndexRows)
	}
	return nil
}

// Index maps every row of the encoded table to its bucket in one
// bucketization. root[row] is the row's bucket in the root bucketization
// the index descends from (a base scan, or a source indexed from its
// tuples), and of[r] is root bucket r's bucket here (-1 for an empty root
// bucket, which no row names). An Index is immutable once built, so
// concurrent coarsenings may read one.
type Index struct {
	root []int32
	of   []int32
}

// rootIndex is the index of a root bucketization: root as given, each
// root bucket its own bucket.
func rootIndex(root []int32, buckets int) *Index {
	of := make([]int32, buckets)
	for i := range of {
		of[i] = int32(i)
	}
	return &Index{root: root, of: of}
}

// Rows returns the number of rows the index covers.
func (x *Index) Rows() int { return len(x.root) }

// Bucket returns the position in Buckets of the bucket holding row.
func (x *Index) Bucket(row int) int { return int(x.of[x.root[row]]) }

// IndexOf builds the index of a bucketization that came without one (a
// cached or append-patched entry) from its tuples: one write per row. It
// fails on a bucketization built without row ids, and unless the buckets
// partition rows [0, rows) exactly, so coarsening never reads a row the
// index misses.
func IndexOf(bz *Bucketization, rows int) (*Index, error) {
	if err := checkIndexRows(rows); err != nil {
		return nil, err
	}
	if !bz.hasTuples() {
		return nil, errNoTuples("IndexOf")
	}
	root := make([]int32, rows)
	for i := range root {
		root[i] = -1
	}
	n := 0
	for bi, b := range bz.Buckets {
		for _, row := range b.Tuples {
			if row < 0 || row >= rows || root[row] >= 0 {
				return nil, fmt.Errorf("bucket: row %d of bucket %d is outside [0, %d) or in two buckets", row, bi, rows)
			}
			root[row] = int32(bi)
		}
		n += len(b.Tuples)
	}
	if n != rows {
		return nil, fmt.Errorf("bucket: buckets hold %d of %d rows", n, rows)
	}
	return rootIndex(root, len(bz.Buckets)), nil
}

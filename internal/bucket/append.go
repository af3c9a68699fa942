package bucket

import (
	"fmt"
	"sort"

	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// This file is the incremental-update path of bucketization: given a
// bucketization of a table's first `start` rows and a snapshot of the same
// table after rows were appended, AppendRows re-keys only the appended
// rows and folds them into the existing partition, copy-on-write. Cost is
// O(appended rows + buckets at the node): appended rows are scanned and
// histogrammed once, untouched buckets are shared by pointer with the old
// bucketization (only a key-to-index map entry each), and only buckets the
// appended rows land in are rebuilt. Nothing rescans the pre-existing
// rows, which is what makes refreshing a warm lattice node after a small
// append cheap.

// appendMerged rebuilds one touched bucket: the old bucket's tuples and
// histogram plus appended bucket p's. Tuple order matches a from-scratch
// row scan because every appended row index exceeds every old one. The
// histogram merge is dense-to-dense when both sides carry code-space
// counts (an old histogram shorter than scard predates the new sensitive
// codes and holds zero of each), and falls back to merging the decoded
// freq multisets otherwise.
func appendMerged(old *Bucket, gr *grouping, p int, cr *codeRanks, sdict *table.Dict) *Bucket {
	added, hist := gr.tuples(p), gr.scounts(p)
	tuples := make([]int, 0, len(old.Tuples)+len(added))
	tuples = append(tuples, old.Tuples...)
	tuples = append(tuples, added...)
	if old.scounts != nil && hist != nil && len(old.scounts) <= gr.scard {
		merged := make([]int32, gr.scard)
		copy(merged, old.scounts)
		for v, n := range hist {
			merged[v] += n
		}
		return newDenseBucket(old.Key, tuples, merged, cr)
	}
	counts := make(map[string]int, old.Distinct()+4)
	for _, vc := range old.Freq() {
		counts[vc.Value] += vc.Count
	}
	if hist != nil {
		for v, n := range hist {
			if n > 0 {
				counts[sdict.Value(uint32(v))] += int(n)
			}
		}
	} else {
		for v, n := range gr.sparse[p] {
			counts[sdict.Value(v)] += int(n)
		}
	}
	return newBucket(old.Key, tuples, counts)
}

// AppendRows derives the bucketization of the snapshot enc at the given
// levels from an existing bucketization of the same table's first `start`
// rows at the same levels: rows [start, enc.Rows()) are keyed and grouped,
// groups matching an existing bucket key are merged into a fresh copy of
// that bucket, and unmatched groups become new buckets. Untouched buckets
// are shared with `old` by pointer — neither bucketization is mutated.
//
// Preconditions: `old` partitions exactly the first `start` rows of
// enc.Table at these levels (codes and hierarchies unchanged for those
// rows — appends only ever add dictionary codes), and enc/chs reflect the
// post-append state. The result is then byte-identical — keys, bucket
// order, tuple order, histograms — to FromGeneralizationEncoded(enc, chs,
// levels) on the grown table.
func AppendRows(old *Bucketization, enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels, start int) (*Bucketization, error) {
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return nil, err
	}
	rows := enc.Rows()
	if start < 0 || start > rows {
		return nil, fmt.Errorf("bucket: append start %d outside [0, %d]", start, rows)
	}
	if start == rows {
		// Nothing appended: same partition, re-anchored on the snapshot.
		return &Bucketization{Buckets: old.Buckets, Source: enc.Table}, nil
	}
	// Group only the appended rows with the scan loop, on whichever key
	// path the current cardinalities select (the old bucketization's key
	// path is irrelevant: matching below goes through the decoded string
	// keys, which both paths share).
	gr := scanRows(enc, dims, start, rows)

	// Match each appended bucket to an existing one through its string key.
	oldIndex := make(map[string]int, len(old.Buckets))
	for i, b := range old.Buckets {
		oldIndex[b.Key] = i
	}
	sdict := enc.SensitiveDict()
	cr := denseRanks(sdict)
	out := make([]*Bucket, len(old.Buckets), len(old.Buckets)+len(gr.keys))
	copy(out, old.Buckets)
	fresh := 0
	for p, key := range gr.keys {
		if i, ok := oldIndex[key]; ok {
			out[i] = appendMerged(old.Buckets[i], gr, p, cr, sdict)
		} else {
			out = append(out, gr.bucket(p, cr, sdict))
			fresh++
		}
	}
	if fresh > 0 {
		// New keys joined the partition; restore the global key order (the
		// shared prefix is already sorted, so this is near-linear).
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	}
	return &Bucketization{Buckets: out, Source: enc.Table}, nil
}

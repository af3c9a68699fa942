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
// appended rows land in are rebuilt, in the old bucketization's form: a
// histogram-form node is patched without row ids. Nothing rescans the
// pre-existing rows, which is what makes refreshing a warm lattice node
// after a small append cheap. The derived state the append leaves valid comes along:
// the size, the minimum entropy (carryMinEntropy), the class index
// (carryClasses), and, through the shared buckets, each untouched
// bucket's memoized hash, entropy and MINIMIZE1 row.

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
// order, sizes, representative rows, histograms, and tuple order when old
// holds row ids — to ScanIndexed(enc, chs, levels) on the grown table in
// old's form. It starts with its Size cached (old's plus
// the appended rows), with its MinEntropy cached when old's carries
// (carryMinEntropy), and, when old is indexed, with the class index a
// complete ClassScan would publish, carried forward from old's.
func AppendRows(old *Bucketization, enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels, start int) (*Bucketization, error) {
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return nil, err
	}
	rows := enc.Rows()
	if start < 0 || start > rows {
		return nil, fmt.Errorf("bucket: append start %d outside [0, %d]", start, rows)
	}
	ix := old.index()
	if start == rows {
		// Nothing appended: same partition, re-anchored on the snapshot.
		bz := &Bucketization{Buckets: old.Buckets, Source: enc.Table}
		bz.size.Store(&sizeCache{n: len(bz.Buckets), size: old.Size()})
		if ix != nil {
			bz.classes.Store(ix)
		}
		return bz, nil
	}
	// Group only the appended rows with the scan loop, on whichever key
	// path the current cardinalities select (the old bucketization's key
	// path is irrelevant: matching below goes through the decoded string
	// keys, which both paths share).
	rowIDs := old.hasTuples()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	gr := scanRows(enc, dims, start, rows, sc, directLimit(rows-start), rowIDs)

	// Match each appended bucket to an existing one through its string
	// key, and tally its histogram: the matched bucket's (coded over an
	// older view of the dictionary, whose codes never change) plus the
	// appended rows'.
	oldIndex := make(map[string]int, len(old.Buckets))
	for i, b := range old.Buckets {
		oldIndex[b.Key] = i
	}
	hb := histPool.Get().(*histBuilder)
	defer histPool.Put(hb)
	hb.reset(enc.SensitiveDict())
	// changed lists the rebuilt and new buckets in key order, each with
	// its position in the result: a rebuilt bucket's old position, and a
	// new key's the old keys below it, each shifted by the new keys before
	// it in key order.
	changed := make([]appended, 0, len(gr.keys))
	fresh := 0
	for p, key := range gr.keys {
		added := gr.tuples(p)
		i, ok := oldIndex[key]
		if ok {
			hb.addBucket(old.Buckets[i])
		}
		gr.addRows(hb, p)
		hb.close()
		if !ok {
			below := sort.Search(len(old.Buckets), func(j int) bool { return old.Buckets[j].Key > key })
			changed = append(changed, appended{b: hb.bucket(p, key, added, gr.size(p), gr.reps[p]), at: below + fresh, from: -1})
			fresh++
			continue
		}
		// Every appended row index exceeds every old one, so the tuples
		// stay in row order and the old bucket's smallest row stays the
		// smallest.
		ob := old.Buckets[i]
		var tuples []int
		if rowIDs {
			tuples = make([]int, 0, len(ob.Tuples)+len(added))
			tuples = append(tuples, ob.Tuples...)
			tuples = append(tuples, added...)
		}
		rep := ob.Rep()
		if ob.Size() == 0 {
			rep = gr.reps[p]
		}
		changed = append(changed, appended{b: hb.bucket(p, key, tuples, ob.Size()+gr.size(p), rep), at: i + fresh, from: i})
	}
	// Lay out the result in key order: the old buckets' runs between the
	// changed buckets' positions.
	out := make([]*Bucket, len(old.Buckets)+fresh)
	i, j := 0, 0
	for _, ch := range changed {
		i += copy(out[j:ch.at], old.Buckets[i:])
		out[ch.at] = ch.b
		j = ch.at + 1
		if ch.from >= 0 {
			i++
		}
	}
	copy(out[j:], old.Buckets[i:])
	bz := &Bucketization{Buckets: out, Source: enc.Table}
	bz.size.Store(&sizeCache{n: len(out), size: old.Size() + rows - start})
	if min, ok := carryMinEntropy(old, changed); ok {
		bz.minEntropy.Store(&entropyCache{n: len(out), min: min})
	}
	if ix != nil {
		if carried := carryClasses(ix, old.Buckets, changed, len(out)); carried != nil {
			bz.classes.Store(carried)
		}
	}
	return bz, nil
}

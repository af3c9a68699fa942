package bucket

import (
	"sync"

	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/parallel"
	"ckprivacy/internal/table"
)

// This file is the row-sharded path of bucketization: the encoded table's
// code columns are split into P contiguous row ranges, each range is
// grouped independently (on its own core when the pool can lend one), and
// the per-shard partial groups are merged key-by-key. Because shards are
// contiguous and processed in ascending order, concatenating a key's
// per-shard tuple runs reproduces the exact row-scan tuple order, each
// key's representative row is the globally lowest, and dense sensitive
// histograms sum exactly — so the merged result is byte-identical to the
// single-threaded scan (the randomized parity tests in shard_test.go pin
// this at several shard counts, on both key paths). This is what turns
// bucketize from parallel-across-lattice-nodes into parallel-within-a-
// node, the axis that matters once a single table has millions of rows.

// scratch is one shard's reusable scan state: the grouping maps (cleared,
// not reallocated, between scans — map bucket growth is the dominant
// allocation of a scan), the byte-tuple key buffer, and a free list of
// dense sensitive histograms recycled from merged duplicate groups.
type scratch struct {
	by64  map[uint64]*egroup
	byStr map[string]*egroup
	buf   []byte
	free  [][]int32
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// getScratch returns a scratch with empty (but capacity-retaining) maps.
//
//ckvet:ignore poolleak ownership transfers to the caller: scanRange pairs every getScratch with a deferred scratchPool.Put
func getScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	if sc.by64 == nil {
		sc.by64 = make(map[uint64]*egroup)
	} else {
		clear(sc.by64)
	}
	if sc.byStr == nil {
		sc.byStr = make(map[string]*egroup)
	} else {
		clear(sc.byStr)
	}
	return sc
}

// newEgroup allocates a group like the package-level newEgroup, drawing
// dense histograms from the scratch's free list when one fits.
func (sc *scratch) newEgroup(rep, scard int) *egroup {
	if scard <= maxDenseSensitive {
		for n := len(sc.free); n > 0; n = len(sc.free) {
			s := sc.free[n-1]
			sc.free = sc.free[:n-1]
			if cap(s) >= scard {
				s = s[:scard]
				clear(s)
				return &egroup{rep: rep, scounts: s}
			}
		}
	}
	return newEgroup(rep, scard)
}

// releaseScounts returns merged-away dense histograms to the scratch pool
// for the next scan to reuse.
func releaseScounts(freed [][]int32) {
	if len(freed) == 0 {
		return
	}
	sc := scratchPool.Get().(*scratch)
	sc.free = append(sc.free, freed...)
	scratchPool.Put(sc)
}

// shardScan is one shard's grouping result: the groups in first-seen
// (row-scan) order plus, aligned index-for-index, the integer or
// byte-tuple key each group was bucketed under — what the merge phase
// matches groups across shards by.
type shardScan struct {
	groups []*egroup
	keys64 []uint64
	keysS  []string
}

// scanRange groups rows [lo, hi) of the encoded view; it is the one
// grouping loop, behind full scans, row shards and AppendRows. Exactly one
// key path is used, chosen by the caller for all shards at once (packable
// is a property of the dimensions, not of the rows).
func scanRange(dims []dim, sens []uint32, scard int, packed bool, lo, hi int) shardScan {
	sc := getScratch()
	defer scratchPool.Put(sc)
	var res shardScan
	if packed {
		by := sc.by64
		for row := lo; row < hi; row++ {
			key := packKey(dims, row)
			g := by[key]
			if g == nil {
				g = sc.newEgroup(row, scard)
				by[key] = g
				res.groups = append(res.groups, g)
				res.keys64 = append(res.keys64, key)
			}
			g.addRow(row, sens)
		}
		return res
	}
	if cap(sc.buf) < 4*len(dims) {
		sc.buf = make([]byte, 4*len(dims))
	}
	buf := sc.buf[:4*len(dims)]
	by := sc.byStr
	for row := lo; row < hi; row++ {
		appendTupleKey(dims, row, buf)
		g := by[string(buf)]
		if g == nil {
			g = sc.newEgroup(row, scard)
			by[string(buf)] = g
			res.groups = append(res.groups, g)
			res.keysS = append(res.keysS, string(buf))
		}
		g.addRow(row, sens)
	}
	return res
}

// mergeShards folds the per-shard partial groups into one global group
// set. Shards are processed in ascending row order, so a key's tuples
// concatenate into exact row-scan order and the first shard holding a key
// contributes the globally lowest representative row. Dense histograms
// sum slice-to-slice (every shard allocated them over the same sensitive
// code space); sparse ones merge map-to-map. Histograms of merged-away
// duplicates are recycled.
func mergeShards(parts []shardScan, packed bool) []*egroup {
	if len(parts) == 1 {
		return parts[0].groups
	}
	var (
		groups []*egroup
		freed  [][]int32
	)
	fold := func(dst, g *egroup) {
		dst.tuples = append(dst.tuples, g.tuples...)
		if dst.scounts != nil {
			for v, n := range g.scounts {
				dst.scounts[v] += n
			}
			freed = append(freed, g.scounts)
			return
		}
		for v, n := range g.sparse {
			dst.sparse[v] += n
		}
	}
	if packed {
		by := make(map[uint64]*egroup)
		for _, part := range parts {
			for gi, g := range part.groups {
				key := part.keys64[gi]
				if dst := by[key]; dst != nil {
					fold(dst, g)
					continue
				}
				by[key] = g
				groups = append(groups, g)
			}
		}
	} else {
		by := make(map[string]*egroup)
		for _, part := range parts {
			for gi, g := range part.groups {
				key := part.keysS[gi]
				if dst := by[key]; dst != nil {
					fold(dst, g)
					continue
				}
				by[key] = g
				groups = append(groups, g)
			}
		}
	}
	releaseScounts(freed)
	return groups
}

// FromGeneralizationEncodedSharded is FromGeneralizationEncoded with the
// row scan split into `shards` contiguous ranges, scanned concurrently on
// the pool (each shard on its own core when the pool can lend one; a nil
// or saturated pool scans shards on the calling goroutine) and merged.
// The result is byte-identical to the single-threaded scan — keys, bucket
// order, tuple order, histograms — at every shard count and on both key
// paths; shards <= 1 is exactly the single-threaded scan. The returned
// buckets carry their dense code-space histograms like the single scan's,
// so CoarsenInto and AppendRows compose with sharded-built bucketizations
// unchanged.
func FromGeneralizationEncodedSharded(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels, shards int, pool *parallel.Pool) (*Bucketization, error) {
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return nil, err
	}
	rows := enc.Rows()
	if shards < 1 {
		shards = 1
	}
	if shards > rows {
		shards = rows
	}
	if shards == 0 {
		shards = 1 // empty table: one (empty) scan keeps the shape uniform
	}
	sens := enc.SensitiveCol()
	scard := enc.SensitiveDict().Len()
	packed := packable(dims)
	parts := make([]shardScan, shards)
	err = pool.ForEach(shards, func(i int) error {
		lo, hi := rows*i/shards, rows*(i+1)/shards
		parts[i] = scanRange(dims, sens, scard, packed, lo, hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return finishGroups(enc, dims, mergeShards(parts, packed)), nil
}

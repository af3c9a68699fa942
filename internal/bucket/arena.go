package bucket

import (
	"sort"
	"sync"
	"sync/atomic"

	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// This file is the coarsening path: CoarsenInto derives the bucketization
// at coarser levels from an already-materialized finer one of the same
// encoded table, without rescanning the rows. Every fine bucket is re-keyed
// through its representative row (the hierarchies' nested-coarsening law
// guarantees all its rows generalize identically), fine buckets with equal
// coarse keys are merged, and their sensitive code histograms are summed.
// The cost is proportional to the number of fine buckets, not the number
// of rows — this is what makes lattice-wide sweeps cheap after the first
// scan. It merges into scratch drawn from a pooled arena and precomputes
// every output size from the source bucketization, so a planned sweep
// materializing dozens of lattice nodes allocates each histogram and tuple
// slab exactly once and reuses its grouping maps, permutation and key
// buffers across calls.
//
// The output is byte-identical to a direct scan at the coarse levels: same
// keys, same bucket order, same tuple order, same frequency tables. Three
// mechanical choices make it cheap:
//
//   - groups that merge no fine buckets (one source bucket → one output
//     bucket) share the source bucket's tuple, frequency and histogram
//     storage outright under the re-decoded key instead of copying it;
//   - tuples of merged groups are written by a single ascending row scan
//     into an exactly-sized slab (epoch-tagged row→group scatter), so the
//     per-group sort.Ints of the append-then-sort path disappears;
//   - dense sensitive histograms of all merged groups live in one slab
//     sized nGroups × cardinality up front.

// arena is the pooled scratch of coarsening calls: grouping maps (cleared,
// not reallocated, between calls), the row→group tag array, and the key /
// permutation / cursor buffers. CoarsenInto holds one for the duration of
// a call. The zero value is ready to use.
type arena struct {
	by64    map[uint64]int
	byStr   map[string]int
	buf     []byte   // byte-tuple key buffer (unpackable dimension sets)
	groups  []cgroup // per-call group table
	groupOf []int32  // fine-bucket index → group index (-1: empty bucket)
	rowTag  []uint64 // row → epoch<<32|group for merged-group scatter
	epoch   uint32
	cursor  []int
	keys    []string
	perm    []int
	parts   []string
}

// cgroup is the pass-one state of one coarse group: its representative
// row, the index of the first fine bucket that mapped to it, how many fine
// buckets and rows it absorbs, and — for groups that actually merge — its
// offset in the tuple slab and its dense-histogram slot.
type cgroup struct {
	rep   int
	first int32
	nb    int32
	rows  int
	off   int
	mi    int32 // merged-group slot; -1 when the group is a single bucket
}

// arenaPool recycles arenas across coarsening calls; arenaGets and
// arenaAllocs feed ArenaStats (reuses = gets − pool misses).
var (
	arenaPool   = sync.Pool{New: func() any { arenaAllocs.Add(1); return &arena{} }}
	arenaGets   atomic.Uint64
	arenaAllocs atomic.Uint64
)

// ArenaStats reports how many arenas were handed out and how many of those
// were pool reuses rather than fresh allocations — the sweep benchmarks
// export the reuse count and the serving layer graphs both on /metrics.
func ArenaStats() (gets, reuses uint64) {
	g, a := arenaGets.Load(), arenaAllocs.Load()
	if a > g { // a Get is counted before its pool miss; never report negative
		a = g
	}
	return g, g - a
}

// reset prepares the arena for one coarsening call over nFine source
// buckets and nDims dimensions.
func (ar *arena) reset(nDims, nFine int) {
	if ar.by64 == nil {
		ar.by64 = make(map[uint64]int)
	} else {
		clear(ar.by64)
	}
	if ar.byStr == nil {
		ar.byStr = make(map[string]int)
	} else {
		clear(ar.byStr)
	}
	if cap(ar.buf) < 4*nDims {
		ar.buf = make([]byte, 4*nDims)
	}
	if cap(ar.groupOf) < nFine {
		ar.groupOf = make([]int32, nFine)
	}
	ar.groupOf = ar.groupOf[:nFine]
	if cap(ar.parts) < nDims {
		ar.parts = make([]string, nDims)
	}
	ar.parts = ar.parts[:nDims]
}

// nextEpoch sizes the row-tag array for `rows` rows and advances the
// epoch, returning the tag prefix (epoch<<32) rows of this call are marked
// with. Stale tags from earlier calls never match the new epoch, so the
// array is never cleared.
func (ar *arena) nextEpoch(rows int) uint64 {
	if cap(ar.rowTag) < rows {
		ar.rowTag = make([]uint64, rows)
		ar.epoch = 0
	}
	ar.rowTag = ar.rowTag[:cap(ar.rowTag)]
	ar.epoch++
	if ar.epoch == 0 { // epoch wrapped: old tags would alias the new epoch
		clear(ar.rowTag)
		ar.epoch = 1
	}
	return uint64(ar.epoch) << 32
}

// buffers returns the per-group cursor, key and permutation scratch sized
// for n groups.
func (ar *arena) buffers(n int) (cur []int, keys []string, perm []int) {
	if cap(ar.cursor) < n {
		ar.cursor = make([]int, n)
	}
	if cap(ar.keys) < n {
		ar.keys = make([]string, n)
	}
	if cap(ar.perm) < n {
		ar.perm = make([]int, n)
	}
	return ar.cursor[:n], ar.keys[:n], ar.perm[:n]
}

// CoarsenInto derives the bucketization at the given levels from fine,
// merging through a pooled arena: the grouping maps, row-tag array and
// ordering buffers are reused across calls instead of being allocated per
// call, tuple and histogram slabs are exact-size, and fine buckets that
// coarsen alone share their storage.
//
// Precondition: fine partitions enc.Table at levels that are
// component-wise ≤ the requested levels (on every schema QI attribute).
// The result is then byte-identical to FromGeneralizationEncoded at the
// requested levels.
func CoarsenInto(fine *Bucketization, enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) (*Bucketization, error) {
	arenaGets.Add(1)
	ar := arenaPool.Get().(*arena)
	defer arenaPool.Put(ar)
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return nil, err
	}
	sens := enc.SensitiveCol()
	scard := enc.SensitiveDict().Len()
	ar.reset(len(dims), len(fine.Buckets))

	// Pass 1: assign every non-empty fine bucket a coarse group through its
	// representative row (the nested-coarsening law: all its rows
	// generalize identically), accumulating each group's bucket and row
	// counts so every output slab below is allocated at exact size.
	groups := ar.groups[:0]
	groupOf := ar.groupOf
	if packable(dims) {
		by := ar.by64
		for fi, b := range fine.Buckets {
			if len(b.Tuples) == 0 {
				groupOf[fi] = -1
				continue
			}
			key := packKey(dims, b.Tuples[0])
			gi, ok := by[key]
			if !ok {
				gi = len(groups)
				by[key] = gi
				groups = append(groups, cgroup{rep: b.Tuples[0], first: int32(fi), mi: -1})
			}
			g := &groups[gi]
			g.nb++
			g.rows += len(b.Tuples)
			groupOf[fi] = int32(gi)
		}
	} else {
		by := ar.byStr
		buf := ar.buf[:4*len(dims)]
		for fi, b := range fine.Buckets {
			if len(b.Tuples) == 0 {
				groupOf[fi] = -1
				continue
			}
			appendTupleKey(dims, b.Tuples[0], buf)
			gi, ok := by[string(buf)]
			if !ok {
				gi = len(groups)
				by[string(buf)] = gi
				groups = append(groups, cgroup{rep: b.Tuples[0], first: int32(fi), mi: -1})
			}
			g := &groups[gi]
			g.nb++
			g.rows += len(b.Tuples)
			groupOf[fi] = int32(gi)
		}
	}
	ar.groups = groups

	// Lay out the merged groups (nb ≥ 2): slab offsets for tuples and a
	// dense-histogram slot each. Groups of one fine bucket (mi = -1) never
	// touch a slab — they share the source bucket's storage below.
	nMerged, mergedRows := 0, 0
	for gi := range groups {
		if groups[gi].nb > 1 {
			groups[gi].mi = int32(nMerged)
			groups[gi].off = mergedRows
			nMerged++
			mergedRows += groups[gi].rows
		}
	}

	cur, keys, perm := ar.buffers(len(groups))

	var tupSlab []int
	dense := scard <= maxDenseSensitive
	var histSlab []int32
	if nMerged > 0 {
		// Merged tuples: tag each merged row with its group, then scatter
		// by one ascending row scan — the slab sections come out in global
		// row order, exactly what the append-then-sort path sorted into.
		tupSlab = make([]int, mergedRows)
		rows := enc.Rows()
		tag := ar.nextEpoch(rows)
		for fi, b := range fine.Buckets {
			gi := groupOf[fi]
			if gi < 0 || groups[gi].mi < 0 {
				continue
			}
			t := tag | uint64(uint32(gi))
			for _, row := range b.Tuples {
				ar.rowTag[row] = t
			}
		}
		for gi := range groups {
			cur[gi] = groups[gi].off
		}
		for row, t := range ar.rowTag[:rows] {
			if t&^uint64(0xffffffff) != tag {
				continue
			}
			gi := uint32(t)
			tupSlab[cur[gi]] = row
			cur[gi]++
		}
		if dense {
			// Merged dense histograms: one slab, summed slice-to-slice from
			// fine histograms when they carry one (a histogram shorter than
			// the current code space is still exact — it predates an append,
			// and codes are never reassigned), recounted from rows otherwise.
			histSlab = make([]int32, nMerged*scard)
			for fi, b := range fine.Buckets {
				gi := groupOf[fi]
				if gi < 0 || groups[gi].mi < 0 {
					continue
				}
				mi := int(groups[gi].mi)
				hist := histSlab[mi*scard : (mi+1)*scard : (mi+1)*scard]
				if b.scounts != nil && len(b.scounts) <= scard {
					for v, n := range b.scounts {
						hist[v] += n
					}
				} else {
					for _, row := range b.Tuples {
						hist[sens[row]]++
					}
				}
			}
		}
	}

	// Decode the keys once per group and order the output; a monotone
	// re-key leaves the source order intact, in which case the sort is
	// skipped (keysAreSorted is the linear pre-check of finishGroups too).
	parts := ar.parts[:len(dims)]
	for gi := range groups {
		keys[gi] = keyString(dims, groups[gi].rep, parts)
	}
	for i := range perm {
		perm[i] = i
	}
	if !keysAreSorted(keys) {
		sort.Slice(perm, func(i, j int) bool { return keys[perm[i]] < keys[perm[j]] })
	}

	sdict := enc.SensitiveDict()
	bz := &Bucketization{Source: enc.Table, Buckets: make([]*Bucket, len(groups))}
	for oi, gi := range perm {
		g := &groups[gi]
		if g.nb == 1 {
			bz.Buckets[oi] = rekeyBucket(fine.Buckets[g.first], keys[gi])
			continue
		}
		sec := tupSlab[g.off : g.off+g.rows : g.off+g.rows]
		eg := egroup{rep: g.rep, tuples: sec}
		if dense {
			mi := int(g.mi)
			eg.scounts = histSlab[mi*scard : (mi+1)*scard : (mi+1)*scard]
		} else {
			sp := make(map[uint32]int32, 8)
			for _, row := range sec {
				sp[sens[row]]++
			}
			eg.sparse = sp
		}
		bz.Buckets[oi] = eg.bucket(keys[gi], sdict)
	}
	return bz, nil
}

// keysAreSorted reports whether keys are already in ascending order — the
// linear pre-check that lets coarsening and finishGroups skip their output
// sort when the re-key map is monotone in the source order.
func keysAreSorted(keys []string) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}

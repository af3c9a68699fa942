package bucket

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// This file is the coarsening path: CoarsenIndexed derives the
// bucketization at coarser levels from an already-materialized finer one
// of the same encoded table, without rescanning the rows. Every fine
// bucket is re-keyed through its representative row (the hierarchies'
// nested-coarsening law guarantees all its rows generalize identically),
// fine buckets with equal coarse keys are merged, and their code-space
// histograms are summed. Its cost is O(fine buckets and their histogram
// entries). The row-id form adds, when some groups merge, one sequential
// pass over the row index that scatters the merged groups' row ids: 4
// bytes read per row and one write per merged row. The histogram form
// skips it and writes no index, so it never reads a row. A call merges
// into scratch drawn from a pooled arena and precomputes every output
// size from the source bucketization, so a planned sweep materializing
// dozens of lattice nodes allocates each slab exactly once and reuses its
// grouping maps, permutation and key buffers across calls.
//
// The output is byte-identical to a direct scan at the coarse levels in
// the same form: same keys, same bucket order, same sizes and
// representative rows, same histograms, and on the row-id form the same
// tuple order. Three mechanical choices make it cheap:
//
//   - groups that merge no fine buckets (one source bucket → one output
//     bucket) share the source bucket's histogram storage and memo
//     outright under the re-decoded key, and on the row-id form its tuple
//     storage, instead of copying them;
//   - tuples of merged groups are written by one ascending pass over the
//     row index into an exactly-sized slab, each root bucket's output
//     bucket resolved once beforehand, so no per-group sort runs and no
//     row is written twice;
//   - merged histograms are tallied member by member into one dense
//     scratch array over the sensitive code space and sorted on code
//     ranks (hist.go), into two slabs shared by the call's merged buckets.

// arena is the pooled scratch of coarsening calls: grouping maps (cleared,
// not reallocated, between calls) and the key / permutation / position /
// cursor buffers. CoarsenIndexed holds one for the duration of a call. The
// zero value is ready to use.
type arena struct {
	by64    map[uint64]int
	byStr   map[string]int
	buf     []byte   // byte-tuple key buffer (unpackable dimension sets)
	groups  []cgroup // per-call group table
	groupOf []int32  // fine-bucket index → group index (-1: empty bucket)
	posOf   []int32  // group index → output position
	members []int32  // fine buckets of the merged groups, by merged slot
	cursor  []int
	keys    []string
	perm    []int
	parts   []string
}

// cgroup is the pass-one state of one coarse group: its representative
// row (the smallest of its fine buckets'), the index of the first fine
// bucket that mapped to it, how many fine buckets and rows it absorbs,
// and — for groups that actually merge — its offset in the tuple slab, its
// merged slot and the offset of its fine buckets in the arena's member
// list.
type cgroup struct {
	rep   int
	first int32
	nb    int32
	rows  int
	off   int
	moff  int   // member-list offset (merged groups only)
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

// memberBuf returns the member-list scratch sized for n fine buckets.
func (ar *arena) memberBuf(n int) []int32 {
	if cap(ar.members) < n {
		ar.members = make([]int32, n)
	}
	return ar.members[:n]
}

// buffers returns the per-group cursor, key, permutation and position
// scratch sized for n groups.
func (ar *arena) buffers(n int) (cur []int, keys []string, perm []int, posOf []int32) {
	if cap(ar.cursor) < n {
		ar.cursor = make([]int, n)
	}
	if cap(ar.keys) < n {
		ar.keys = make([]string, n)
	}
	if cap(ar.perm) < n {
		ar.perm = make([]int, n)
	}
	if cap(ar.posOf) < n {
		ar.posOf = make([]int32, n)
	}
	return ar.cursor[:n], ar.keys[:n], ar.perm[:n], ar.posOf[:n]
}

// CoarsenIndexed derives the bucketization at the given levels from fine.
// Given fine's row index idx (from ScanIndexed, IndexOf or an earlier
// CoarsenIndexed), it builds the row-id form and returns the result's
// index, which shares idx's row array; fine must then hold its row ids.
// Given a nil idx, it builds the histogram form (every Bucket.Tuples nil)
// from fine in either form, reads no row and returns a nil index. It
// merges through a pooled arena: the grouping maps and ordering buffers
// are reused across calls instead of being allocated per call, slabs are
// exact-size, and fine buckets that coarsen alone share their storage.
//
// Precondition: fine partitions enc.Table at levels that are
// component-wise ≤ the requested levels (on every schema QI attribute),
// and idx, when given, indexes fine over all of enc's rows. The result is
// then byte-identical to ScanIndexed at the requested levels in the same
// form.
func CoarsenIndexed(fine *Bucketization, idx *Index, enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) (*Bucketization, *Index, error) {
	arenaGets.Add(1)
	ar := arenaPool.Get().(*arena)
	defer arenaPool.Put(ar)
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return nil, nil, err
	}
	rowIDs := idx != nil
	if rowIDs {
		if idx.Rows() != enc.Rows() {
			return nil, nil, fmt.Errorf("bucket: row index covers %d rows, table has %d", idx.Rows(), enc.Rows())
		}
		if !fine.hasTuples() {
			return nil, nil, errNoTuples("a row-id coarsening")
		}
	}
	ar.reset(len(dims), len(fine.Buckets))

	// Pass 1: assign every non-empty fine bucket a coarse group through its
	// representative row (the nested-coarsening law: all its rows
	// generalize identically), accumulating each group's bucket and row
	// counts and its smallest row, so every output slab below is
	// allocated at exact size.
	groups := ar.groups[:0]
	groupOf := ar.groupOf
	join := func(fi int, b *Bucket, gi int, ok bool) {
		if !ok {
			groups = append(groups, cgroup{rep: b.Rep(), first: int32(fi), mi: -1})
		}
		g := &groups[gi]
		g.rep = min(g.rep, b.Rep())
		g.nb++
		g.rows += b.Size()
		groupOf[fi] = int32(gi)
	}
	if packable(dims) {
		by := ar.by64
		for fi, b := range fine.Buckets {
			if b.Size() == 0 {
				groupOf[fi] = -1
				continue
			}
			key := packKey(dims, b.Rep())
			gi, ok := by[key]
			if !ok {
				gi = len(groups)
				by[key] = gi
			}
			join(fi, b, gi, ok)
		}
	} else {
		by := ar.byStr
		buf := ar.buf[:4*len(dims)]
		for fi, b := range fine.Buckets {
			if b.Size() == 0 {
				groupOf[fi] = -1
				continue
			}
			appendTupleKey(dims, b.Rep(), buf)
			gi, ok := by[string(buf)]
			if !ok {
				gi = len(groups)
				by[string(buf)] = gi
			}
			join(fi, b, gi, ok)
		}
	}
	ar.groups = groups

	// Decode the keys once per group and order the output; a monotone
	// re-key leaves the source order intact, in which case the sort is
	// skipped (keysAreSorted is the linear pre-check of the scan too).
	cur, keys, perm, posOf := ar.buffers(len(groups))
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

	// Lay out the merged groups (nb ≥ 2) in output order: slab offsets
	// for tuples, a merged slot and a member-list section each. Groups of
	// one fine bucket (mi = -1) never touch a slab — they share the source
	// bucket's storage below — so their cursor is -1.
	nMerged, mergedRows, mergedMembers := 0, 0, 0
	for oi, gi := range perm {
		posOf[gi] = int32(oi)
		g := &groups[gi]
		if g.nb == 1 {
			cur[oi] = -1
			continue
		}
		g.mi, g.off, g.moff = int32(nMerged), mergedRows, mergedMembers
		cur[oi] = mergedRows
		nMerged++
		mergedRows += g.rows
		mergedMembers += int(g.nb)
	}

	var out *Index
	var tupSlab []int
	if rowIDs {
		// The result's index: each root bucket's output position, resolved
		// once through its fine bucket and that bucket's group.
		of := make([]int32, len(idx.of))
		for r, fi := range idx.of {
			of[r] = -1
			if fi >= 0 {
				if gi := groupOf[fi]; gi >= 0 {
					of[r] = posOf[gi]
				}
			}
		}
		out = &Index{root: idx.root, of: of}
		if nMerged > 0 {
			// Merged tuples: one ascending pass over the row index scatters
			// each merged row to its group's cursor, so every slab section
			// comes out in global row order, as a scan writes it.
			tupSlab = make([]int, mergedRows)
			for row, r := range idx.root {
				p := of[r]
				if at := cur[p]; at >= 0 {
					tupSlab[at] = row
					cur[p] = at + 1
				}
			}
		}
	}

	var slabs histSlabs
	if nMerged > 0 {
		// Merged histograms: list each merged group's fine buckets, then
		// tally them group by group in output order. A fine histogram
		// coded over an older view of the dictionary (one that predates an
		// append) is still exact: codes are never reassigned.
		members := ar.memberBuf(mergedMembers)
		for fi := range fine.Buckets {
			if gi := groupOf[fi]; gi >= 0 && groups[gi].mi >= 0 {
				g := &groups[gi]
				members[g.moff] = int32(fi)
				g.moff++
			}
		}
		hb := histPool.Get().(*histBuilder)
		defer histPool.Put(hb)
		hb.reset(enc.SensitiveDict())
		end := 0
		for _, gi := range perm {
			g := &groups[gi]
			if g.mi < 0 {
				continue
			}
			for _, fi := range members[end:g.moff] {
				hb.addBucket(fine.Buckets[fi])
			}
			end = g.moff
			hb.close()
		}
		slabs = hb.slabs()
	}

	bz := &Bucketization{Source: enc.Table, Buckets: make([]*Bucket, len(groups))}
	for oi, gi := range perm {
		g := &groups[gi]
		if g.nb == 1 {
			b := fine.Buckets[g.first]
			var tuples []int
			if rowIDs {
				tuples = b.Tuples
			}
			bz.Buckets[oi] = rekeyBucket(b, keys[gi], tuples)
			continue
		}
		var tuples []int
		if rowIDs {
			tuples = tupSlab[g.off : g.off+g.rows : g.off+g.rows]
		}
		bz.Buckets[oi] = slabs.bucket(int(g.mi), keys[gi], tuples, g.rows, g.rep)
	}
	return bz, out, nil
}

// keysAreSorted reports whether keys are already in ascending order — the
// linear pre-check that lets coarsening and the scan skip their output
// sort when the re-key map is monotone in the source order.
func keysAreSorted(keys []string) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}

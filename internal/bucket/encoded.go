package bucket

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"

	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// This file is the integer path of bucketization: it computes the
// partition over a columnar Encoded view of the table and compiled
// hierarchies, so the per-row work is a handful of array indexes instead
// of map lookups and string joins. Per-row generalized codes are packed
// into a single uint64 group key when the
// per-dimension cardinalities fit 64 bits (multi-radix positional
// packing), which indexes a slot table directly when the key space is no
// larger than the rows scanned, and falls back to a byte-tuple key
// otherwise — the fallback is exact, not a lossy hash, so every key path
// groups identically. Sensitive histograms are tallied in code space and
// sorted (hist.go). A scan builds one of two forms. The row-id form keeps
// every bucket's row ids in one exact-size slab per call, and the per-row
// group ids the scan keeps become the row index (index.go) that
// coarsening reads. The histogram form, for callers that read only sizes,
// keys, representative rows and histograms (the paper's §2.1 privacy
// state), writes neither: its per-row scratch is pooled, so a scan
// allocates O(buckets).
//
// Byte-identity contract (relied on by the randomized parity tests against
// the string-path reference in internal/oracle, and by the lattice
// searches' caches): bucket keys ("v1|v2|…" generalized values), bucket
// order (by key), tuple sets and orders (by row), and sensitive histograms
// (count desc, value asc) are identical to the reference's.

// CompileHierarchies compiles every hierarchy that names a column of the
// encoded table over that column's dictionary (in dictionary code order).
// Hierarchies for attributes the table lacks are skipped: no scan consults
// them. A table value the hierarchy does not cover, or levels that are not
// nested coarsenings, fail with an error naming the attribute.
func CompileHierarchies(enc *table.Encoded, hs hierarchy.Set) (hierarchy.CompiledSet, error) {
	chs := make(hierarchy.CompiledSet, len(hs))
	for name, h := range hs {
		col := enc.Table.Schema.Index(name)
		if col < 0 {
			continue
		}
		c, err := hierarchy.Compile(h, enc.Dicts[col].Values())
		if err != nil {
			return nil, fmt.Errorf("bucket: attribute %q: %w", name, err)
		}
		chs[name] = c
	}
	return chs, nil
}

// dim is one quasi-identifier dimension of an encoded grouping: the code
// column, the (optional) generalization LUT for the requested level, and
// the decoding hooks used to materialize bucket keys.
type dim struct {
	col   []uint32
	lut   []uint32 // nil at level 0 (identity over the dictionary)
	card  uint64   // generalized-code cardinality at the level
	level int
	comp  *hierarchy.Compiled // nil at level 0
	dict  *table.Dict
}

// value decodes row's generalized value string in this dimension.
func (d *dim) value(row int) string {
	c := d.col[row]
	if d.lut == nil {
		return d.dict.Value(c)
	}
	return d.comp.Value(d.level, d.lut[c])
}

// buildDims resolves the schema's quasi-identifiers at the given levels
// against the encoded view and the compiled hierarchies. It also rejects a
// table too large for a row index, since every caller builds or reads one.
func buildDims(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) ([]dim, error) {
	s := enc.Table.Schema
	if err := validateLevels(s, chs, levels); err != nil {
		return nil, err
	}
	if err := checkIndexRows(enc.Rows()); err != nil {
		return nil, err
	}
	qi := s.QuasiIdentifiers()
	dims := make([]dim, len(qi))
	for i, col := range qi {
		name := s.Attrs[col].Name
		lvl := levels[name]
		d := dim{col: enc.Cols[col], level: lvl, dict: enc.Dicts[col]}
		if lvl != 0 {
			c := chs[name] // present: validateLevels checked every non-zero level
			if covered := len(c.Lut(0)); covered < enc.Dicts[col].Len() {
				// The dictionary grew past the compiled domain (an append
				// without a matching Compiled.Extend); indexing the stale
				// LUT would run off its end.
				return nil, fmt.Errorf(
					"bucket: compiled hierarchy for %q covers %d of %d dictionary values; extend it after appends",
					name, covered, enc.Dicts[col].Len())
			}
			d.lut = c.Lut(lvl)
			d.card = uint64(c.Cardinality(lvl))
			d.comp = c
		} else {
			d.card = uint64(enc.Dicts[col].Len())
		}
		dims[i] = d
	}
	return dims, nil
}

// validateLevels rejects level assignments that the grouping loop would
// otherwise silently ignore or default: attributes that do not exist in
// the schema (typos), the sensitive attribute, and levels outside the
// attribute's hierarchy range.
func validateLevels(s *table.Schema, chs hierarchy.CompiledSet, levels Levels) error {
	for name, lvl := range levels {
		col := s.Index(name)
		if col < 0 {
			return fmt.Errorf("bucket: levels name unknown attribute %q", name)
		}
		if col == s.SensitiveIndex {
			return fmt.Errorf("bucket: levels name the sensitive attribute %q, which cannot be generalized", name)
		}
		if lvl == 0 {
			continue // identity needs no hierarchy
		}
		c, ok := chs[name]
		if !ok {
			return fmt.Errorf("bucket: no hierarchy for attribute %q", name)
		}
		if lvl < 0 || lvl >= c.Levels() {
			return fmt.Errorf("bucket: level %d for attribute %q outside [0, %d)", lvl, name, c.Levels())
		}
	}
	return nil
}

// keySpace returns the dimensions' generalized-code product — the number
// of distinct packed keys — and whether it fits a uint64, i.e. whether
// positional multi-radix packing is collision-free.
func keySpace(dims []dim) (uint64, bool) {
	prod := uint64(1)
	for _, d := range dims {
		if d.card == 0 {
			return 0, true // empty table; no keys will be built
		}
		if prod > ^uint64(0)/d.card {
			return 0, false
		}
		prod *= d.card
	}
	return prod, true
}

// packable reports whether the dimensions' keys pack into a uint64.
func packable(dims []dim) bool {
	_, ok := keySpace(dims)
	return ok
}

// packKey builds the multi-radix packed key of one row.
func packKey(dims []dim, row int) uint64 {
	key := uint64(0)
	for i := range dims {
		d := &dims[i]
		c := d.col[row]
		if d.lut != nil {
			c = d.lut[c]
		}
		key = key*d.card + uint64(c)
	}
	return key
}

// appendTupleKey serializes one row's generalized code tuple into buf
// (the exact fallback when packing would overflow).
func appendTupleKey(dims []dim, row int, buf []byte) {
	for i := range dims {
		d := &dims[i]
		c := d.col[row]
		if d.lut != nil {
			c = d.lut[c]
		}
		binary.BigEndian.PutUint32(buf[4*i:], c)
	}
}

// minDirectSlots is the key space a scan always addresses directly,
// however few rows it groups: a slot table this small costs less to clear
// than a map costs to grow.
const minDirectSlots = 4096

// directLimit is the largest packed key space a scan of n rows groups
// through a slot table indexed by key: max(n, minDirectSlots), so the
// table never costs more than the rows it groups.
func directLimit(n int) uint64 { return max(uint64(n), minDirectSlots) }

// scratch is the reusable state of a scan: the grouping slot table and
// maps from a row's key to its group id (cleared, not reallocated,
// between scans — map bucket growth is the dominant allocation of a map
// scan), the byte-tuple key buffer, the sensitive codes of the rows in
// bucket order, and the per-row group ids of a histogram-form scan.
type scratch struct {
	slots []int32 // packed key → group id + 1; 0 is unseen
	by64  map[uint64]int32
	byStr map[string]int32
	buf   []byte
	sens  []uint32
	gid   []int32
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{by64: make(map[uint64]int32), byStr: make(map[string]int32)}
}}

// grouping is what the scan loop hands back for rows [lo, hi): the
// buckets in key order, bucket p's size off[p+1]-off[p] and smallest row
// reps[p], its sensitive codes in sens[off[p]:off[p+1]] (scan scratch,
// valid until the scratch is put back), and on the row-id form its rows
// (ascending) in the same section of one exact-size slab and index[row-lo],
// the position of row's bucket. rows and index are nil on the histogram
// form.
type grouping struct {
	keys  []string
	off   []int
	reps  []int
	rows  []int
	sens  []uint32
	index []int32
}

// size returns bucket p's row count.
func (gr *grouping) size(p int) int { return gr.off[p+1] - gr.off[p] }

// tuples returns bucket p's rows, or nil on the histogram form.
func (gr *grouping) tuples(p int) []int {
	if gr.rows == nil {
		return nil
	}
	return gr.rows[gr.off[p]:gr.off[p+1]:gr.off[p+1]]
}

// addRows counts bucket p's sensitive codes in hb's open histogram.
func (gr *grouping) addRows(hb *histBuilder, p int) {
	for _, c := range gr.sens[gr.off[p]:gr.off[p+1]] {
		hb.add(c, 1)
	}
}

// scanRows is the one grouping loop, behind full scans and AppendRows: a
// counting sort of rows [lo, hi) by bucket, in two passes. The first keys
// every row to a group id (through a slot table indexed by its packed
// uint64 code tuple when the key space is at most limit keys — callers
// pass directLimit(hi-lo) — the packed key's map entry when it is larger
// but fits 64 bits, the exact byte-tuple key's otherwise) and counts group
// sizes. Groups are then
// ordered by their decoded keys, which fixes every bucket's slab section.
// The second pass walks the rows in ascending order and writes each row's
// sensitive code at its bucket's cursor. On the row-id form it also
// writes the row id there, and overwrites the row's group id with the
// bucket's position, which leaves the index behind; the histogram form
// keeps the group ids in scratch and allocates nothing per row. The
// grouping reads sc until the caller puts it back.
func scanRows(enc *table.Encoded, dims []dim, lo, hi int, sc *scratch, limit uint64, rowIDs bool) *grouping {
	var index []int32
	if rowIDs {
		index = make([]int32, hi-lo)
	} else {
		if cap(sc.gid) < hi-lo {
			sc.gid = make([]int32, hi-lo)
		}
		index = sc.gid[:hi-lo]
	}
	reps, sizes := sc.group(dims, lo, hi, index, limit)
	ng := len(reps)

	// Order the groups by key; groups already in key order (common when
	// the scan order is the key order, e.g. a sorted table) skip the sort.
	// perm maps bucket positions to group ids, posOf inverts it.
	parts := make([]string, len(dims))
	byGroup := make([]string, ng)
	for g, rep := range reps {
		byGroup[g] = keyString(dims, rep, parts)
	}
	perm := make([]int32, ng)
	for p := range perm {
		perm[p] = int32(p)
	}
	if !keysAreSorted(byGroup) {
		slices.SortFunc(perm, func(a, b int32) int { return strings.Compare(byGroup[a], byGroup[b]) })
	}
	posOf, cur := make([]int32, ng), make([]int, ng)
	gr := &grouping{keys: make([]string, ng), off: make([]int, ng+1), reps: make([]int, ng)}
	for p, g := range perm {
		posOf[g] = int32(p)
		gr.keys[p] = byGroup[g]
		gr.reps[p] = reps[g]
		cur[p] = gr.off[p]
		gr.off[p+1] = gr.off[p] + sizes[g]
	}

	if cap(sc.sens) < hi-lo {
		sc.sens = make([]uint32, hi-lo)
	}
	gr.sens = sc.sens[:hi-lo]
	sens, codes := enc.SensitiveCol(), gr.sens
	if !rowIDs {
		for i, g := range index {
			p := posOf[g]
			at := cur[p]
			codes[at] = sens[lo+i]
			cur[p] = at + 1
		}
		return gr
	}
	gr.rows, gr.index = make([]int, hi-lo), index
	rows := gr.rows
	for i, g := range index {
		p := posOf[g]
		row := lo + i
		at := cur[p]
		rows[at] = row
		codes[at] = sens[row]
		cur[p] = at + 1
		index[i] = p
	}
	return gr
}

// group is the scan's first pass: it keys rows [lo, hi) to group ids in
// first-seen order, writing each row's id to gid[row-lo], and returns each
// group's first row and size. A packed key space of at most limit keys is
// addressed directly; the paths differ in speed only, never in the ids.
func (sc *scratch) group(dims []dim, lo, hi int, gid []int32, limit uint64) (reps, sizes []int) {
	space, packs := keySpace(dims)
	switch {
	case packs && space <= limit:
		n := int(space)
		if cap(sc.slots) < n {
			sc.slots = make([]int32, n)
		}
		slots := sc.slots[:n]
		clear(slots)
		for row := lo; row < hi; row++ {
			key := packKey(dims, row)
			g := slots[key] - 1
			if g < 0 {
				g = int32(len(reps))
				slots[key] = g + 1
				reps = append(reps, row)
				sizes = append(sizes, 0)
			}
			sizes[g]++
			gid[row-lo] = g
		}
	case packs:
		clear(sc.by64)
		by := sc.by64
		for row := lo; row < hi; row++ {
			key := packKey(dims, row)
			g, ok := by[key]
			if !ok {
				g = int32(len(reps))
				by[key] = g
				reps = append(reps, row)
				sizes = append(sizes, 0)
			}
			sizes[g]++
			gid[row-lo] = g
		}
	default:
		clear(sc.byStr)
		if cap(sc.buf) < 4*len(dims) {
			sc.buf = make([]byte, 4*len(dims))
		}
		buf := sc.buf[:4*len(dims)]
		by := sc.byStr
		for row := lo; row < hi; row++ {
			appendTupleKey(dims, row, buf)
			g, ok := by[string(buf)]
			if !ok {
				g = int32(len(reps))
				by[string(buf)] = g
				reps = append(reps, row)
				sizes = append(sizes, 0)
			}
			sizes[g]++
			gid[row-lo] = g
		}
	}
	return reps, sizes
}

// keyString materializes the bucket key of a group from its
// representative row: the generalized values joined as "v1|v2|…", built
// once per bucket.
func keyString(dims []dim, row int, parts []string) string {
	for i := range dims {
		parts[i] = dims[i].value(row)
	}
	return strings.Join(parts, "|")
}

// FromGeneralizationEncoded partitions the encoded table by the generalized
// values of its quasi-identifiers: two tuples share a bucket iff they agree
// on every QI attribute after generalization to the given level.
// Attributes absent from levels default to level 0 (no generalization).
// This realizes the paper's equivalence of full-domain generalization and
// bucketization under full identification information. The rows are
// grouped by a two-pass counting sort over the code columns (scanRows),
// and the result holds its row ids.
func FromGeneralizationEncoded(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) (*Bucketization, error) {
	bz, _, err := ScanIndexed(enc, chs, levels, true, nil)
	return bz, err
}

// ScanIndexed partitions enc at levels in one counting-sort scan, as
// FromGeneralizationEncoded does. With rowIDs it returns the row-id form
// and the scan's row index, so a planned sweep can coarsen the result's
// children through CoarsenIndexed without indexing its tuples again.
// Without, it returns the histogram form (every Bucket.Tuples nil) and a
// nil index, and writes neither the row-id slab nor the index.
//
// A non-nil hist fills in row ids, whatever rowIDs says: hist must be
// enc's bucketization at levels, and the scan then builds no histograms.
// The result holds hist's buckets with their row ids added, sharing their
// histograms and memos, and starts with hist's published class index,
// disclosure series, Size and MinEntropy. A hist whose keys, sizes or
// representative rows differ from the scan's fails with an error.
func ScanIndexed(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels, rowIDs bool, hist *Bucketization) (*Bucketization, *Index, error) {
	return scanIndexed(enc, chs, levels, directLimit(enc.Rows()), rowIDs, hist)
}

// scanIndexed is ScanIndexed with the direct-addressing limit given.
func scanIndexed(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels, limit uint64, rowIDs bool, hist *Bucketization) (*Bucketization, *Index, error) {
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return nil, nil, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	gr := scanRows(enc, dims, 0, enc.Rows(), sc, limit, rowIDs || hist != nil)
	if hist != nil {
		bz, err := fillTuples(hist, gr, enc.Table)
		if err != nil {
			return nil, nil, err
		}
		return bz, rootIndex(gr.index, len(gr.keys)), nil
	}
	hb := histPool.Get().(*histBuilder)
	defer histPool.Put(hb)
	hb.reset(enc.SensitiveDict())
	for p := range gr.keys {
		gr.addRows(hb, p)
		hb.close()
	}
	slabs := hb.slabs()
	bz := &Bucketization{Source: enc.Table, Buckets: make([]*Bucket, len(gr.keys))}
	for p, key := range gr.keys {
		bz.Buckets[p] = slabs.bucket(p, key, gr.tuples(p), gr.size(p), gr.reps[p])
	}
	if !rowIDs {
		return bz, nil, nil
	}
	return bz, rootIndex(gr.index, len(gr.keys)), nil
}

// fillTuples gives hist's buckets the row ids of a row-id scan at hist's
// levels: the buckets share hist's histograms and memos, and the result
// starts with hist's published derived state, which describes the same
// buckets in the same order.
func fillTuples(hist *Bucketization, gr *grouping, src *table.Table) (*Bucketization, error) {
	if len(hist.Buckets) != len(gr.keys) {
		return nil, fmt.Errorf("bucket: filling in row ids: %d buckets, the scan finds %d", len(hist.Buckets), len(gr.keys))
	}
	bz := &Bucketization{Source: src, Buckets: make([]*Bucket, len(gr.keys))}
	for p, b := range hist.Buckets {
		if b.Key != gr.keys[p] || b.Size() != gr.size(p) || b.Rep() != gr.reps[p] {
			return nil, fmt.Errorf("bucket: filling in row ids: bucket %d is %q of %d rows from row %d, the scan finds %q of %d from %d",
				p, b.Key, b.Size(), b.Rep(), gr.keys[p], gr.size(p), gr.reps[p])
		}
		bz.Buckets[p] = rekeyBucket(b, b.Key, gr.tuples(p))
	}
	if ix := hist.classes.Load(); ix != nil {
		bz.classes.Store(ix)
	}
	for v := range hist.series {
		if s := hist.series[v].Load(); s != nil {
			bz.series[v].Store(s)
		}
	}
	if c := hist.size.Load(); c != nil {
		bz.size.Store(c)
	}
	if c := hist.minEntropy.Load(); c != nil {
		bz.minEntropy.Store(c)
	}
	return bz, nil
}

// Bucketize is the one-shot form of FromGeneralizationEncoded: it encodes
// t, compiles hs over the encoding and scans once. Compilation rejects a
// table value a hierarchy does not cover, or levels that are not nested
// coarsenings, with an error naming the attribute. Callers that bucketize
// one table at many levels should encode once (anonymize.Problem does).
func Bucketize(t *table.Table, hs hierarchy.Set, levels Levels) (*Bucketization, error) {
	enc := t.Encode()
	chs, err := CompileHierarchies(enc, hs)
	if err != nil {
		return nil, err
	}
	return FromGeneralizationEncoded(enc, chs, levels)
}

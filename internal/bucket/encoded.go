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
// packing), falling back to a byte-tuple key otherwise — the fallback is
// exact, not a lossy hash, so both key paths group identically. Sensitive
// histograms are counted over the sensitive dictionary's code space,
// ordered on integer code ranks when that space is dense, and decoded to
// strings once per bucket. Every bucket's row ids live in one exact-size
// slab per call, and the per-row group ids the scan keeps become the row
// index (index.go) that coarsening reads.
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

// packable reports whether the dimensions' generalized-code product fits a
// uint64, i.e. whether positional multi-radix packing is collision-free.
func packable(dims []dim) bool {
	prod := uint64(1)
	for _, d := range dims {
		if d.card == 0 {
			return true // empty table; no keys will be built
		}
		if prod > ^uint64(0)/d.card {
			return false
		}
		prod *= d.card
	}
	return true
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

// MaxDenseSensitive bounds the sensitive cardinality up to which
// histograms are dense []int32 slices over the code space, ordered on
// integer code ranks. Above it (e.g. a near-unique sensitive column),
// dense slices would cost O(buckets × cardinality) memory — quadratic at
// fine lattice nodes where buckets ≈ rows — so buckets fall back to
// sparse maps, keeping the total O(rows), and sort on decoded values.
// Parity suites read it to prove they cover both representations.
const MaxDenseSensitive = 256

// scratch is the reusable state of a scan: the grouping maps from a
// row's key to its group id (cleared, not reallocated, between scans —
// map bucket growth is the dominant allocation of a scan) and the
// byte-tuple key buffer.
type scratch struct {
	by64  map[uint64]int32
	byStr map[string]int32
	buf   []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{by64: make(map[uint64]int32), byStr: make(map[string]int32)}
}}

// grouping is what the scan loop hands back for rows [lo, hi): the
// buckets in key order, bucket p's rows (ascending) in
// rows[off[p]:off[p+1]] of one exact-size slab, its histogram in the
// dense slab's p-th scard-long section or, above MaxDenseSensitive, in
// sparse[p], and index[row-lo], the position of row's bucket.
type grouping struct {
	keys   []string
	off    []int
	rows   []int
	scard  int
	dense  []int32
	sparse []map[uint32]int32
	index  []int32
}

// tuples returns bucket p's rows.
func (gr *grouping) tuples(p int) []int {
	return gr.rows[gr.off[p]:gr.off[p+1]:gr.off[p+1]]
}

// scounts returns bucket p's dense histogram (nil when sparse).
func (gr *grouping) scounts(p int) []int32 {
	if gr.dense == nil {
		return nil
	}
	return gr.dense[p*gr.scard : (p+1)*gr.scard : (p+1)*gr.scard]
}

// bucket builds bucket p; cr is nil exactly when histograms are sparse.
func (gr *grouping) bucket(p int, cr *codeRanks, sdict *table.Dict) *Bucket {
	if cr == nil {
		return newSparseBucket(gr.keys[p], gr.tuples(p), gr.sparse[p], sdict)
	}
	return newDenseBucket(gr.keys[p], gr.tuples(p), gr.scounts(p), cr)
}

// denseRanks returns the code ranks of the sensitive dictionary when its
// histograms are dense, and nil when they are sparse.
func denseRanks(sdict *table.Dict) *codeRanks {
	if sdict.Len() > MaxDenseSensitive {
		return nil
	}
	return newCodeRanks(sdict)
}

// scanRows is the one grouping loop, behind full scans and AppendRows: a
// counting sort of rows [lo, hi) by bucket, in two passes. The first keys
// every row to a group id (its packed uint64 code tuple when the
// dimensions' cardinality product fits 64 bits, the exact byte-tuple key
// otherwise) and counts group sizes. Groups are then ordered by their
// decoded keys, which fixes every bucket's slab section. The second pass
// walks the rows in ascending order, writes each row id at its bucket's
// cursor, counts its sensitive code, and overwrites its group id with the
// bucket's position, which leaves the index behind.
func scanRows(enc *table.Encoded, dims []dim, lo, hi int) *grouping {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	index := make([]int32, hi-lo)
	reps, sizes := sc.group(dims, lo, hi, index)
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
	gr := &grouping{keys: make([]string, ng), off: make([]int, ng+1), rows: make([]int, hi-lo), index: index}
	for p, g := range perm {
		posOf[g] = int32(p)
		gr.keys[p] = byGroup[g]
		cur[p] = gr.off[p]
		gr.off[p+1] = gr.off[p] + sizes[g]
	}

	sens := enc.SensitiveCol()
	scard := enc.SensitiveDict().Len()
	gr.scard = scard
	if scard <= MaxDenseSensitive {
		gr.dense = make([]int32, ng*scard)
	} else {
		gr.sparse = make([]map[uint32]int32, ng)
		for p := range gr.sparse {
			gr.sparse[p] = make(map[uint32]int32, 4)
		}
	}
	rows, dense := gr.rows, gr.dense
	for i, g := range index {
		p := posOf[g]
		row := lo + i
		rows[cur[p]] = row
		cur[p]++
		if dense != nil {
			dense[int(p)*scard+int(sens[row])]++
		} else {
			gr.sparse[p][sens[row]]++
		}
		index[i] = p
	}
	return gr
}

// group is the scan's first pass: it keys rows [lo, hi) to group ids in
// first-seen order, writing each row's id to gid[row-lo], and returns each
// group's first row and size.
func (sc *scratch) group(dims []dim, lo, hi int, gid []int32) (reps, sizes []int) {
	clear(sc.by64)
	clear(sc.byStr)
	if packable(dims) {
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
	} else {
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
// grouped by a two-pass counting sort over the code columns (scanRows).
func FromGeneralizationEncoded(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) (*Bucketization, error) {
	bz, _, err := ScanIndexed(enc, chs, levels)
	return bz, err
}

// ScanIndexed is FromGeneralizationEncoded that also returns the scan's
// row index, so a planned sweep can coarsen the result's children through
// CoarsenIndexed without indexing its tuples again.
func ScanIndexed(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) (*Bucketization, *Index, error) {
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return nil, nil, err
	}
	gr := scanRows(enc, dims, 0, enc.Rows())
	sdict := enc.SensitiveDict()
	cr := denseRanks(sdict)
	bz := &Bucketization{Source: enc.Table, Buckets: make([]*Bucket, len(gr.keys))}
	for p := range bz.Buckets {
		bz.Buckets[p] = gr.bucket(p, cr, sdict)
	}
	return bz, rootIndex(gr.index, len(gr.keys)), nil
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

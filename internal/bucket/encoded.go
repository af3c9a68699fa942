package bucket

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
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
// histograms are counted over the sensitive dictionary's code space and
// decoded to strings once per bucket.
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
// against the encoded view and the compiled hierarchies.
func buildDims(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) ([]dim, error) {
	s := enc.Table.Schema
	if err := validateLevels(s, chs, levels); err != nil {
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

// maxDenseSensitive bounds the sensitive cardinality up to which
// per-group histograms are dense []int32 slices over the code space.
// Above it (e.g. a near-unique sensitive column), dense slices would cost
// O(buckets × cardinality) memory — quadratic at fine lattice nodes where
// buckets ≈ rows — so groups fall back to sparse maps, keeping the total
// O(rows).
const maxDenseSensitive = 256

// egroup accumulates one bucket of the encoded grouping. Exactly one of
// scounts (dense) or sparse is non-nil, chosen by sensitive cardinality.
type egroup struct {
	rep     int // representative row: any member; all agree at these levels
	tuples  []int
	scounts []int32
	sparse  map[uint32]int32
}

// newEgroup allocates a group with the histogram representation suited to
// the sensitive code space.
func newEgroup(rep, scard int) *egroup {
	g := &egroup{rep: rep}
	if scard <= maxDenseSensitive {
		g.scounts = make([]int32, scard)
	} else {
		g.sparse = make(map[uint32]int32, 4)
	}
	return g
}

// addRow appends one row to the group.
func (g *egroup) addRow(row int, sens []uint32) {
	g.tuples = append(g.tuples, row)
	if g.scounts != nil {
		g.scounts[sens[row]]++
	} else {
		g.sparse[sens[row]]++
	}
}

// scratch is the reusable state of a scan: the grouping maps (cleared,
// not reallocated, between scans — map bucket growth is the dominant
// allocation of a scan) and the byte-tuple key buffer.
type scratch struct {
	by64  map[uint64]*egroup
	byStr map[string]*egroup
	buf   []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{by64: make(map[uint64]*egroup), byStr: make(map[string]*egroup)}
}}

// scanRange groups rows [lo, hi) of the encoded view, returning the groups
// in first-seen (row-scan) order; it is the one grouping loop, behind full
// scans and AppendRows. Rows are keyed by their packed uint64 code tuple
// when the dimensions' cardinality product fits 64 bits, and by the exact
// byte-tuple key otherwise.
func scanRange(dims []dim, sens []uint32, scard, lo, hi int) []*egroup {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	clear(sc.by64)
	clear(sc.byStr)
	var groups []*egroup
	if packable(dims) {
		by := sc.by64
		for row := lo; row < hi; row++ {
			key := packKey(dims, row)
			g := by[key]
			if g == nil {
				g = newEgroup(row, scard)
				by[key] = g
				groups = append(groups, g)
			}
			g.addRow(row, sens)
		}
		return groups
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
			g = newEgroup(row, scard)
			by[string(buf)] = g
			groups = append(groups, g)
		}
		g.addRow(row, sens)
	}
	return groups
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

// bucket finalizes the group into a Bucket, decoding value strings
// through the sensitive dictionary. It sorts with table.CompareCounts
// (count desc, value asc), the order of table.SortCounts, so the
// resulting freq slice is byte-identical to one built from a count map.
// Dense groups keep their code histogram on the bucket for later
// coarsening; sparse ones drop it (CoarsenInto recounts their rows, which
// is still O(rows) total).
func (g *egroup) bucket(key string, sdict *table.Dict) *Bucket {
	freq := make([]table.ValueCount, 0, 8)
	if g.scounts != nil {
		for code, n := range g.scounts {
			if n > 0 {
				freq = append(freq, table.ValueCount{Value: sdict.Value(uint32(code)), Count: int(n)})
			}
		}
	} else {
		for code, n := range g.sparse {
			freq = append(freq, table.ValueCount{Value: sdict.Value(code), Count: int(n)})
		}
	}
	slices.SortFunc(freq, table.CompareCounts)
	b := &Bucket{Key: key, Tuples: g.tuples, freq: freq, scounts: g.scounts}
	b.finalize()
	return b
}

// finishGroups materializes and orders the buckets of an encoded
// grouping: keys decoded once per group, groups sorted by key.
func finishGroups(enc *table.Encoded, dims []dim, groups []*egroup) *Bucketization {
	type keyed struct {
		key string
		g   *egroup
	}
	ks := make([]keyed, len(groups))
	parts := make([]string, len(dims))
	sorted := true
	for i, g := range groups {
		ks[i] = keyed{keyString(dims, g.rep, parts), g}
		if i > 0 && ks[i].key < ks[i-1].key {
			sorted = false
		}
	}
	// Groups already in key order (common when the scan order is the key
	// order, e.g. a sorted table) skip the sort outright.
	if !sorted {
		sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	}
	bz := &Bucketization{Source: enc.Table}
	bz.Buckets = make([]*Bucket, len(ks))
	sdict := enc.SensitiveDict()
	for i, k := range ks {
		bz.Buckets[i] = k.g.bucket(k.key, sdict)
	}
	return bz
}

// FromGeneralizationEncoded partitions the encoded table by the generalized
// values of its quasi-identifiers: two tuples share a bucket iff they agree
// on every QI attribute after generalization to the given level.
// Attributes absent from levels default to level 0 (no generalization).
// This realizes the paper's equivalence of full-domain generalization and
// bucketization under full identification information. The rows are
// grouped in one pass over the code columns.
func FromGeneralizationEncoded(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) (*Bucketization, error) {
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return nil, err
	}
	groups := scanRange(dims, enc.SensitiveCol(), enc.SensitiveDict().Len(), 0, enc.Rows())
	return finishGroups(enc, dims, groups), nil
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

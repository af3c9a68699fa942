package bucket

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"

	"ckprivacy/internal/table"
)

// This file builds bucket histograms in code space. A bucket keeps one
// histogram: its counts in decreasing order, ties broken by increasing
// value (what Histogram returns and the DP reads), and the aligned codes
// of their values in the sensitive dictionary. Every constructor — the
// scan, coarsening, an append, Merge and the value-list constructors —
// tallies codes into a pooled dense array indexed by code, then sorts the
// codes it touched. Sorting on code ranks makes the value tie-break an
// integer compare when the dictionary is small enough to rank once per
// call; above MaxDenseSensitive the tie-break compares decoded values.

// MaxDenseSensitive bounds the sensitive cardinality up to which a call
// ranks the whole dictionary once and sorts histograms on integer code
// ranks. Above it (e.g. a near-unique sensitive column), ranking would
// cost a sort of the dictionary per scan, coarsening or append, so
// histograms sort on decoded values instead. Parity suites read it to
// prove they cover both orders.
const MaxDenseSensitive = 256

// codeRanks orders a sensitive code space by value: rank[code] is the
// code's position in ascending value order and byRank inverts it.
type codeRanks struct {
	rank   []uint32
	byRank []uint32
}

// newCodeRanks ranks the dictionary's values, or returns nil when the
// dictionary is above MaxDenseSensitive.
func newCodeRanks(dict *table.Dict) *codeRanks {
	values := dict.Values()
	if len(values) > MaxDenseSensitive {
		return nil
	}
	byRank := make([]uint32, len(values))
	for i := range byRank {
		byRank[i] = uint32(i)
	}
	slices.SortFunc(byRank, func(a, b uint32) int { return strings.Compare(values[a], values[b]) })
	rank := make([]uint32, len(values))
	for r, code := range byRank {
		rank[code] = uint32(r)
	}
	return &codeRanks{rank: rank, byRank: byRank}
}

// histBuilder stages the sorted histograms of one constructor call back to
// back. counts is the dense tally of the open histogram, indexed by code,
// and touched lists the codes it has counted; close sorts them into the
// staged hist and codes and zeroes their counts. A builder is
// single-goroutine scratch, recycled through histPool.
type histBuilder struct {
	dict    *table.Dict
	cr      *codeRanks // nil: ties sort on decoded values
	counts  []int32
	touched []uint32
	keys    []uint64 // rank-sort scratch
	hist    []int
	codes   []uint32
	ends    []int // ends[i] is where staged histogram i ends
}

var histPool = sync.Pool{New: func() any { return new(histBuilder) }}

// reset prepares the builder for a call over dict.
func (hb *histBuilder) reset(dict *table.Dict) {
	n := dict.Len()
	if cap(hb.counts) < n {
		hb.counts = make([]int32, n)
	}
	hb.counts = hb.counts[:n]
	clear(hb.counts)
	hb.dict, hb.cr = dict, newCodeRanks(dict)
	hb.touched, hb.hist, hb.codes, hb.ends = hb.touched[:0], hb.hist[:0], hb.codes[:0], hb.ends[:0]
}

// add counts n more of code in the open histogram.
func (hb *histBuilder) add(code uint32, n int32) {
	if hb.counts[code] == 0 {
		hb.touched = append(hb.touched, code)
	}
	hb.counts[code] += n
}

// addBucket counts every value of b in the open histogram. b's codes must
// be in the builder's code space (an older view of the same dictionary
// qualifies: codes are never reassigned).
func (hb *histBuilder) addBucket(b *Bucket) {
	for j, c := range b.codes {
		hb.add(c, int32(b.hist[j]))
	}
}

// close stages the open histogram in (count desc, value asc) order and
// opens the next one.
func (hb *histBuilder) close() {
	start := len(hb.hist)
	if cr := hb.cr; cr != nil {
		keys := hb.keys[:0]
		for _, c := range hb.touched {
			keys = append(keys, uint64(math.MaxInt32-hb.counts[c])<<32|uint64(cr.rank[c]))
			hb.counts[c] = 0
		}
		slices.Sort(keys)
		for _, k := range keys {
			hb.hist = append(hb.hist, int(math.MaxInt32-int32(k>>32)))
			hb.codes = append(hb.codes, cr.byRank[uint32(k)])
		}
		hb.keys = keys
	} else {
		for _, c := range hb.touched {
			hb.hist = append(hb.hist, int(hb.counts[c]))
			hb.codes = append(hb.codes, c)
			hb.counts[c] = 0
		}
		sortByValue(hb.hist[start:], hb.codes[start:], hb.dict)
	}
	hb.touched = hb.touched[:0]
	hb.ends = append(hb.ends, len(hb.hist))
}

// sortByValue sorts aligned counts and codes by count descending, ties by
// decoded value ascending (table.CompareCounts' order).
func sortByValue(hist []int, codes []uint32, dict *table.Dict) {
	perm := make([]int, len(hist))
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int {
		if c := cmp.Compare(hist[b], hist[a]); c != 0 {
			return c
		}
		return strings.Compare(dict.Value(codes[a]), dict.Value(codes[b]))
	})
	h, c := slices.Clone(hist), slices.Clone(codes)
	for i, p := range perm {
		hist[i], codes[i] = h[p], c[p]
	}
}

// histSlabs holds the staged histograms of one call in two exact-size
// slabs, and their buckets' memos in a third, so the call's buckets share
// three allocations.
type histSlabs struct {
	hist  []int
	codes []uint32
	ends  []int
	memos []memo
	dict  *table.Dict
}

// slabs copies the staged histograms out of the builder's scratch.
func (hb *histBuilder) slabs() histSlabs {
	s := histSlabs{
		hist:  make([]int, len(hb.hist)),
		codes: make([]uint32, len(hb.codes)),
		ends:  slices.Clone(hb.ends),
		memos: make([]memo, len(hb.ends)),
		dict:  hb.dict,
	}
	copy(s.hist, hb.hist)
	copy(s.codes, hb.codes)
	return s
}

// bucket builds a bucket of size rows, the smallest of them rep, holding
// staged histogram i; tuples is nil on the histogram form.
func (s *histSlabs) bucket(i int, key string, tuples []int, size, rep int) *Bucket {
	lo, hi := span(s.ends, i)
	return newBucket(key, tuples, size, rep, s.hist[lo:hi:hi], s.codes[lo:hi:hi], s.dict, &s.memos[i])
}

// bucket builds a bucket holding a copy of staged histogram i in
// allocations of its own. Appends use it: the buckets one rebuilds are
// rebuilt again by later appends, and a slab would stay pinned by the
// buckets of its batch that later appends leave alone.
func (hb *histBuilder) bucket(i int, key string, tuples []int, size, rep int) *Bucket {
	lo, hi := span(hb.ends, i)
	return newOwnedBucket(key, tuples, size, rep, slices.Clone(hb.hist[lo:hi]), slices.Clone(hb.codes[lo:hi]), hb.dict)
}

// span returns the bounds of staged histogram i.
func span(ends []int, i int) (lo, hi int) {
	if i > 0 {
		lo = ends[i-1]
	}
	return lo, ends[i]
}

package bucket

import "slices"

// Histogram classes. Under the random-worlds model a bucket's privacy state
// is its sensitive histogram, so buckets with equal histograms share every
// disclosure computation (the paper's §3.3.3 remark). A bucketization's
// class index names, for each bucket, the class of its histogram, and for
// each class its first bucket and HistogramHash. Classes are numbered
// 0, 1, ... in order of first appearance, so a class's first bucket is the
// bucket at which a walk in bucket order first meets it.
//
// Only a complete ClassScan builds an index, and it publishes it at most
// once through the bucketization's atomic pointer. Buckets never change
// after construction (the snapshotmut analyzer pins Bucketization and
// Bucket to their constructor files), so a published index stays valid for
// the bucketization's whole life and dies with it. Code outside this
// module is not analyzed: an index whose length no longer matches
// len(Buckets) shows that a caller changed them, and it is ignored, so
// such a caller gets a fresh scan instead of an out-of-range read.

// FNV-1a parameters of HistogramHash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord mixes v into the FNV-1a state h as a fixed eight-byte word, so
// histograms of different lengths or counts never alias by concatenation.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// HistogramHash is the 64-bit FNV-1a hash of a histogram's counts. It
// keys both the class dedupe of a ClassScan and internal/core's MINIMIZE1
// memo, so an indexed bucketization's classes carry their memo keys.
// Equal histograms hash equally; callers that dedupe by it must verify a
// match, since distinct histograms may (with probability about 2⁻⁶⁴)
// collide.
func HistogramHash(hist []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range hist {
		h = fnvWord(h, uint64(c))
	}
	return h
}

// classIndex is a bucketization's published histogram classes. It is
// immutable: a ClassScan builds it in its own scratch and publishes a
// copy.
type classIndex struct {
	of    []int32  // class of each bucket
	first []int32  // first bucket of each class, ascending
	hash  []uint64 // HistogramHash of each class's histogram
}

// Indexed reports whether a complete ClassScan has published bz's
// histogram-class index and the index still covers every bucket.
func (bz *Bucketization) Indexed() bool { return bz.index() != nil }

// index returns bz's published class index, or nil if there is none or
// its length no longer matches len(Buckets).
func (bz *Bucketization) index() *classIndex {
	if ix := bz.classes.Load(); ix != nil && len(ix.of) == len(bz.Buckets) {
		return ix
	}
	return nil
}

// ClassScan walks a bucketization's histogram classes in order of first
// appearance. On an indexed bucketization it reads the published index and
// hashes nothing. On a fresh one it classifies buckets as it goes — one
// HistogramHash per bucket, a match verified element-wise — into its own
// scratch, and Close publishes the classes once every bucket is
// classified. A scan abandoned early publishes nothing, so a caller that
// stops at the first class it needs pays only for the buckets it read.
//
// The zero value is ready to use. A ClassScan keeps its scratch across
// scans, so keeping one in pooled per-call state makes a warm scan
// allocation-free; it never hands that scratch to an index. A ClassScan is
// not safe for concurrent use.
type ClassScan struct {
	bz *Bucketization
	ix *classIndex // the published index being read; nil while classifying
	// own is the classification scratch of a fresh scan; Close publishes a
	// copy of it, never the slices themselves.
	own  classIndex
	seen map[uint64]int32 // HistogramHash → first class carrying it
	next int              // next bucket to classify
	cur  int              // current class
	done bool             // a fresh scan has classified every bucket
}

// Start begins a scan of bz's classes, abandoning any scan in progress.
func (s *ClassScan) Start(bz *Bucketization) {
	s.bz, s.ix = bz, bz.index()
	s.cur, s.next, s.done = -1, 0, false
	if s.ix != nil {
		return
	}
	s.own.of = s.own.of[:0]
	s.own.first = s.own.first[:0]
	s.own.hash = s.own.hash[:0]
	if s.seen == nil {
		s.seen = make(map[uint64]int32)
	} else {
		clear(s.seen)
	}
}

// Next advances to the next class and reports whether there is one; the
// c-th call that returns true reaches class c-1. On a fresh bucketization
// it classifies buckets up to that class's first bucket; once it returns
// false every bucket is classified.
func (s *ClassScan) Next() bool {
	if s.ix != nil {
		if s.cur+1 >= len(s.ix.first) {
			return false
		}
		s.cur++
		return true
	}
	for s.next < len(s.bz.Buckets) {
		i := s.next
		s.next++
		hist := s.bz.Buckets[i].hist
		p := HistogramHash(hist)
		c, ok := s.seen[p]
		if ok && slices.Equal(s.bz.Buckets[s.own.first[c]].hist, hist) {
			s.own.of = append(s.own.of, c)
			continue
		}
		// A new class. On a hash collision with an earlier class the map
		// keeps that class, and later buckets of this histogram open
		// classes of their own: more memo lookups, never a wrong row.
		c = int32(len(s.own.first))
		if !ok {
			s.seen[p] = c
		}
		s.own.of = append(s.own.of, c)
		s.own.first = append(s.own.first, int32(i))
		s.own.hash = append(s.own.hash, p)
		s.cur = int(c)
		return true
	}
	s.done = true
	return false
}

// classes returns the classes the scan reads or builds.
func (s *ClassScan) classes() *classIndex {
	if s.ix != nil {
		return s.ix
	}
	return &s.own
}

// Bucket returns the current class's first bucket; every bucket of the
// class has its histogram.
func (s *ClassScan) Bucket() *Bucket { return s.bz.Buckets[s.classes().first[s.cur]] }

// Hash returns HistogramHash of the current class's histogram.
func (s *ClassScan) Hash() uint64 { return s.classes().hash[s.cur] }

// ClassOf returns the class of every bucket, in bucket order. Call it
// after Next has returned false and before Close; the slice stays valid
// until the scan is restarted, and it is shared: callers must not modify
// it.
func (s *ClassScan) ClassOf() []int32 { return s.classes().of }

// Close ends the scan. A complete scan of a fresh bucketization publishes
// a copy of its classes as the bucketization's index, unless an index is
// already published (by another scan, or a stale one that Start ignored);
// an abandoned scan publishes nothing.
func (s *ClassScan) Close() {
	if s.ix == nil && s.done && s.bz.classes.Load() == nil {
		s.bz.classes.CompareAndSwap(nil, &classIndex{
			of:    slices.Clone(s.own.of),
			first: slices.Clone(s.own.first),
			hash:  slices.Clone(s.own.hash),
		})
	}
	s.bz, s.ix, s.done = nil, nil, false
}

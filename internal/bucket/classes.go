package bucket

import (
	"cmp"
	"slices"
)

// Histogram classes. Under the random-worlds model a bucket's privacy state
// is its sensitive histogram, so buckets with equal histograms share every
// disclosure computation (the paper's §3.3.3 remark). A bucketization's
// class index names, for each bucket, the class of its histogram, and for
// each class its first bucket and HistogramHash. Classes are numbered
// 0, 1, ... in order of first appearance, so a class's first bucket is the
// bucket at which a walk in bucket order first meets it.
//
// A complete ClassScan builds an index and publishes it at most once
// through the bucketization's atomic pointer; AppendRows carries an
// indexed bucketization's index forward to the bucketization it derives
// (carryClasses), so an append does not cost its successor a scan.
// Buckets never change after construction (the snapshotmut analyzer pins
// Bucketization and Bucket to their constructor files), so a published
// index stays valid for the bucketization's whole life. Code outside this
// module is not analyzed: an index whose length no longer matches
// len(Buckets) shows that a caller changed them, and it is ignored, so
// such a caller gets a fresh scan instead of an out-of-range read.

// FNV-1a parameters of HistogramHash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HistogramHash is a 64-bit hash of a histogram's counts: FNV-1a over
// whole counts, one multiply per count, finished by MurmurHash3's fmix64
// avalanche, so every bit of the result depends on every count. It keys
// the class dedupe of a ClassScan and of carryClasses. Equal histograms
// hash equally; callers that dedupe by it must verify a match, since
// distinct histograms may (with probability about 2⁻⁶⁴) collide.
func HistogramHash(hist []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range hist {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// classIndex is a bucketization's published histogram classes. It is
// immutable: a ClassScan builds it in its own scratch and publishes a
// copy, and carryClasses builds a new one.
type classIndex struct {
	of    []int32  // class of each bucket
	first []int32  // first bucket of each class, ascending
	hash  []uint64 // HistogramHash of each class's histogram
	// collided records that two classes' histograms share a hash. The
	// scan then splits a histogram's buckets over several classes (see
	// Next), which carryClasses does not reproduce, so it carries only an
	// index without collisions.
	collided bool
}

// Indexed reports whether bz has a histogram-class index, published by a
// complete ClassScan or carried by AppendRows, that still covers every
// bucket.
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
// hashes nothing. On a fresh one it classifies buckets as it goes — by
// each bucket's memoized HistogramHash, a match verified element-wise —
// into its own scratch, and Close publishes the classes once every bucket
// is classified. A scan abandoned early publishes nothing, so a caller that
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
	s.own.collided = false
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
		b := s.bz.Buckets[i]
		p := b.HistogramHash()
		c, ok := s.seen[p]
		if ok && slices.Equal(s.bz.Buckets[s.own.first[c]].hist, b.hist) {
			s.own.of = append(s.own.of, c)
			continue
		}
		// A new class. On a hash collision with an earlier class the map
		// keeps that class, and later buckets of this histogram open
		// classes of their own: more rows built, never a wrong one.
		c = int32(len(s.own.first))
		if ok {
			s.own.collided = true
		} else {
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
			of:       slices.Clone(s.own.of),
			first:    slices.Clone(s.own.first),
			hash:     slices.Clone(s.own.hash),
			collided: s.own.collided,
		})
	}
	s.bz, s.ix, s.done = nil, nil, false
}

// appended is a bucket of an append's result that is not an untouched
// bucket of its source: the bucket, its position in the result, and the
// position of the source bucket it rebuilt under the same key (-1 for a
// new key).
type appended struct {
	b        *Bucket
	at, from int
}

// carryClasses derives the class index of an append's result from ix, the
// index of its source: the result holds the source's untouched buckets in
// their order, with the changed buckets (ascending by position) rebuilt
// in place or inserted among them, n buckets in all. An untouched bucket
// keeps its class; a changed bucket joins the source class whose hash it
// carries, its histogram verified equal, or opens a new class; and the
// classes are renumbered in order of first appearance. The index is thus,
// array for array, the one a complete ClassScan of the result would
// publish, at O(n + classes) array work and one hash per changed bucket.
// It returns nil, leaving the result to a fresh scan, when two distinct
// histograms share a hash: ix records a collision, or a changed bucket
// collides with another or with a source class.
func carryClasses(ix *classIndex, src []*Bucket, changed []appended, n int) *classIndex {
	if ix.collided {
		return nil
	}
	// Group the changed buckets by hash: sort the few of them, so that
	// equal hashes form runs, each of one histogram (or the carry gives
	// up). A run's class is, until a source class claims it below, a new
	// one numbered after the source classes.
	nSrc := int32(len(ix.first))
	order := make([]int, len(changed))
	hashes := make([]uint64, len(changed))
	for c, ch := range changed {
		order[c] = c
		hashes[c] = ch.b.HistogramHash()
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(hashes[a], hashes[b]) })
	run := make([]int32, len(changed)) // run of each changed bucket
	var runHash []uint64
	var runHead []*Bucket
	for x, c := range order {
		if x == 0 || hashes[c] != hashes[order[x-1]] {
			runHash = append(runHash, hashes[c])
			runHead = append(runHead, changed[c].b)
		} else if !slices.Equal(changed[c].b.hist, runHead[len(runHead)-1].hist) {
			return nil
		}
		run[c] = int32(len(runHash) - 1)
	}
	runClass := make([]int32, len(runHash))
	var filter [16]uint64 // a bit per runHash's low 10 bits, to skip most classes
	for r, h := range runHash {
		runClass[r] = nSrc + int32(r)
		filter[h>>6&15] |= 1 << (h & 63)
	}
	for c, h := range ix.hash {
		if filter[h>>6&15]&(1<<(h&63)) == 0 {
			continue
		}
		r, ok := slices.BinarySearch(runHash, h)
		if !ok {
			continue
		}
		if !slices.Equal(src[ix.first[c]].hist, runHead[r].hist) {
			return nil
		}
		runClass[r] = int32(c)
	}

	// Renumber in one walk over the result. Untouched buckets come in
	// source order, and a rebuilt bucket sits where its source bucket's
	// turn comes, so the walk's source cursor is that bucket's position.
	remap := make([]int32, int(nSrc)+len(runHash)) // new class + 1; 0 until met
	of := make([]int32, n)
	first := make([]int32, 0, len(remap))
	hash := make([]uint64, 0, len(remap))
	i := 0               // next source bucket
	next, nextAt := 0, n // next changed bucket and its position
	if len(changed) > 0 {
		nextAt = changed[0].at
	}
	for j := range of {
		var p int32
		if j != nextAt {
			p = ix.of[i]
			i++
		} else {
			p = runClass[run[next]]
			if changed[next].from >= 0 {
				i++
			}
			if next++; next < len(changed) {
				nextAt = changed[next].at
			}
		}
		id := remap[p]
		if id == 0 {
			first = append(first, int32(j))
			if p < nSrc {
				hash = append(hash, ix.hash[p])
			} else {
				hash = append(hash, runHash[p-nSrc])
			}
			id = int32(len(first))
			remap[p] = id
		}
		of[j] = id - 1
	}
	return &classIndex{of: of, first: first, hash: hash}
}

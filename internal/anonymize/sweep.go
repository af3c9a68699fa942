package anonymize

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/parallel"
)

// This file executes the derivation DAGs plan.go builds: frontiers run in
// ascending height order, each frontier evaluated as one batch on the
// problem's worker budget, every non-root node coarsening from its
// parent's result through bucket.CoarsenIndexed. A row-id plan hands each
// result's row index down to its children, so only a source that came
// without one (a cached entry, or one another plan materialized) is
// indexed from its tuples, once per plan and only if a child derives from
// it; a histogram plan needs no index at all. Every materialization goes
// through here, including a single cache miss (a one-node plan), and
// concurrent plans that need one level vector materialize it once: the
// first claims its cache entry, the others wait on the pending entry and
// reuse its bucketization. A row-id read that meets the vector in the
// histogram form fills in its row ids (one scan), once however many
// readers need them. Planning changes which source each derivation uses
// and when, never what it produces: coarsening yields the identical
// bucketization from any component-wise finer source, and that is the
// direct scan's result.

// sweepCounters accumulates the planner's lifetime totals on a Problem.
type sweepCounters struct {
	sweeps    atomic.Uint64
	planned   atomic.Uint64
	baseScans atomic.Uint64
	coarsened atomic.Uint64
	reused    atomic.Uint64
	predicted atomic.Uint64
	actual    atomic.Uint64
}

// SweepStats is a snapshot of a Problem's sweep-planner counters; the
// serving layer exports them on /metrics. PredictedBuckets vs
// ActualBuckets measures the planner's cost model: the closer the ratio
// is to 1, the better its parent choices were.
type SweepStats struct {
	// Sweeps counts planned sweeps executed: one per frontier batch or
	// cache miss that left at least one uncached level vector to plan.
	Sweeps uint64
	// PlannedNodes counts DAG nodes across all sweeps, one per distinct
	// uncached level vector of a batch. A row-id plan's node whose claim
	// became the fill-in of a histogram-form entry, led or waited for,
	// materializes nothing new and is not counted.
	PlannedNodes uint64
	// BaseScans counts planned nodes materialized by a full row scan
	// (DAG roots with no usable source).
	BaseScans uint64
	// Coarsened counts planned nodes derived from a parent by
	// bucket.CoarsenIndexed.
	Coarsened uint64
	// Reused counts planned nodes that needed no work: when the node's
	// turn came, another plan had already claimed its level vector, and
	// the node took that plan's bucketization. A request for a vector
	// that is already cached, a subset node's included, is a cache hit
	// and never becomes a planned node.
	Reused uint64
	// PredictedBuckets sums the planner's predicted bucket counts over
	// materialized nodes.
	PredictedBuckets uint64
	// ActualBuckets sums the materialized nodes' actual bucket counts.
	ActualBuckets uint64
}

// SweepStats snapshots the problem's cumulative sweep-planner counters.
func (p *Problem) SweepStats() SweepStats {
	c := &p.sweepCtr
	return SweepStats{
		Sweeps:           c.sweeps.Load(),
		PlannedNodes:     c.planned.Load(),
		BaseScans:        c.baseScans.Load(),
		Coarsened:        c.coarsened.Load(),
		Reused:           c.reused.Load(),
		PredictedBuckets: c.predicted.Load(),
		ActualBuckets:    c.actual.Load(),
	}
}

// prefetch plans and materializes one batch of level vectors against the
// pinned version's cache, for row-id readers (rowIDs) or histogram
// readers. It is the Snapshot side of the lattice searches' frontier
// hand-off, and the whole of a cache miss.
//
// scratch, when non-nil, lists the scratch roots the search's earlier
// histogram plans scanned (plan.go): the plan may derive from them, and
// adds the one it scans.
func (s *Snapshot) prefetch(vecs [][]int, rowIDs bool, scratch *[]cached) error {
	if len(vecs) == 0 {
		return nil
	}
	var extra []cached
	if scratch != nil {
		extra = *scratch
	}
	pl := s.buildPlan(vecs, rowIDs, extra)
	results, err := s.runPlan(pl)
	if err != nil || scratch == nil {
		return err
	}
	for i := range pl.nodes {
		if n := &pl.nodes[i]; n.scratch {
			*scratch = append(*scratch, cached{vec: n.vec, bz: results[i].bz})
		}
	}
	return nil
}

// planResult is one derivation source of a running plan: a planned node's
// bucketization or a cached source, with its row index on a row-id plan.
// A scan, a fill-in or a coarsening hands over the index its call
// returned; any other source is indexed from its tuples on first use,
// once however many children derive from it.
type planResult struct {
	bz   *bucket.Bucketization
	once sync.Once
	idx  *bucket.Index
	err  error
}

// index returns the source's row index over the snapshot's rows.
func (r *planResult) index(rows int) (*bucket.Index, error) {
	r.once.Do(func() {
		if r.idx == nil {
			r.idx, r.err = bucket.IndexOf(r.bz, rows)
		}
	})
	return r.idx, r.err
}

// runPlan executes a derivation DAG frontier by frontier. Heights run in
// ascending order, so every parent's result exists before its children
// derive from it; within a frontier, nodes are independent and evaluate
// as one parallel batch. It returns each planned node's result; the
// indexes they hold die with the plan, so the cache keeps bucketizations
// only. A node whose claim turns out to be a fill-in materializes no new
// bucketization, so it is not counted as a planned node, and a plan of
// fill-ins only is not counted as a sweep.
func (s *Snapshot) runPlan(pl *sweepPlan) ([]*planResult, error) {
	if len(pl.nodes) == 0 {
		return nil, nil
	}
	ctr := &s.p.sweepCtr
	var planned atomic.Uint64
	defer func() {
		if n := planned.Load(); n > 0 {
			ctr.sweeps.Add(1)
			ctr.planned.Add(n)
		}
	}()
	results := make([]*planResult, len(pl.nodes))
	// Cached sources, one result each however many nodes read them; the
	// map is complete before any worker reads it.
	sources := map[*bucket.Bucketization]*planResult{}
	for i := range pl.nodes {
		if src := pl.nodes[i].source; src != nil && sources[src] == nil {
			sources[src] = &planResult{bz: src}
		}
	}
	for _, frontier := range pl.frontiers {
		err := parallel.ForEach(s.p.opts.Workers, len(frontier), func(i int) error {
			idx := frontier[i]
			res, fill, err := s.runNode(pl, &pl.nodes[idx], results, sources)
			if err != nil {
				return err
			}
			if !fill {
				planned.Add(1)
			}
			results[idx] = res
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runNode produces one planned node's result. Its cache entry decides
// who materializes it: the plan that claims it leads, and a vector another
// plan claimed first is waited for and reused, so concurrent misses of
// one node (the first cells of a safety grid probing one chain midpoint)
// materialize it once. A waiter takes only the leader's bucketization;
// the leader's row index stays with the leader's plan. A row-id plan that
// meets the histogram form, published or from the leader it waited on,
// claims its fill-in, and leads it or waits for whoever does; fill
// reports such a node.
func (s *Snapshot) runNode(pl *sweepPlan, n *planNode, results []*planResult, sources map[*bucket.Bucketization]*planResult) (res *planResult, fill bool, err error) {
	if n.scratch {
		res, err = s.build(pl, n, results, sources)
		return res, false, err
	}
	for {
		e, bz, leader := s.st.cache.claim(n.key, n.vec, pl.rowIDs)
		if leader {
			res, err = s.lead(pl, e, n, results, sources)
			return res, e.hist != nil, err
		}
		if bz == nil {
			var rowIDs bool
			if bz, rowIDs, err = e.wait(); err != nil {
				return nil, false, err
			}
			if pl.rowIDs && !rowIDs {
				continue
			}
			fill = e.hist != nil
		}
		if !fill {
			s.p.sweepCtr.reused.Add(1)
		}
		return &planResult{bz: bz}, fill, nil
	}
}

// lead materializes n under its claimed entry e and publishes the result,
// or, on any failure (a panic included), abandons e so its waiters fail
// instead of hanging. A fill-in entry has its row ids filled in by one
// scan at its levels, which counts nothing; any other claim is built by
// the plan (build) and counts one cache miss.
func (s *Snapshot) lead(pl *sweepPlan, e *cacheEntry, n *planNode, results []*planResult, sources map[*bucket.Bucketization]*planResult) (res *planResult, err error) {
	st := s.st
	defer func() {
		if res != nil {
			st.cache.publish(n.key, e, res.bz, pl.rowIDs)
			return
		}
		if err == nil {
			err = fmt.Errorf("anonymize: materializing %v was abandoned", n.vec)
		}
		st.cache.abandon(n.key, e, err)
	}()
	if e.hist != nil {
		bz, index, err := bucket.ScanIndexed(st.enc, st.compiled, s.p.levels(n.vec), true, e.hist)
		if err != nil {
			return nil, err
		}
		return &planResult{bz: bz, idx: index}, nil
	}
	if res, err = s.build(pl, n, results, sources); err == nil {
		st.cache.countMiss()
	}
	return res, err
}

// build materializes n in the plan's form: a base scan at a DAG root and
// a coarsening otherwise.
func (s *Snapshot) build(pl *sweepPlan, n *planNode, results []*planResult, sources map[*bucket.Bucketization]*planResult) (*planResult, error) {
	st := s.st
	ctr := &s.p.sweepCtr
	levels := s.p.levels(n.vec)
	var bz *bucket.Bucketization
	var index *bucket.Index
	var err error
	if n.parent < 0 && n.source == nil {
		bz, index, err = bucket.ScanIndexed(st.enc, st.compiled, levels, pl.rowIDs, nil)
		ctr.baseScans.Add(1)
	} else {
		from := sources[n.source]
		if n.parent >= 0 {
			from = results[n.parent]
		}
		var fromIdx *bucket.Index
		if pl.rowIDs {
			fromIdx, err = from.index(st.enc.Rows())
		}
		if err == nil {
			bz, index, err = bucket.CoarsenIndexed(from.bz, fromIdx, st.enc, st.compiled, levels)
		}
		ctr.coarsened.Add(1)
	}
	if err != nil {
		return nil, err
	}
	ctr.predicted.Add(uint64(n.predicted))
	ctr.actual.Add(uint64(len(bz.Buckets)))
	return &planResult{bz: bz, idx: index}, nil
}

// nodePrefetch adapts the planner to a full-node search's frontier
// hand-off (see subsetPrefetch): a full node is the subset request over
// every listed QI.
func (s *Snapshot) nodePrefetch() lattice.Prefetch {
	prefetch := s.subsetPrefetch()
	return func(nodes []lattice.Node) error {
		return prefetch(s.fullSubsets(len(nodes)), nodes)
	}
}

// subsetPrefetch adapts the planner to one search's frontier hand-off, an
// Incognito layer's included: one batch spans nodes of several subset
// lattices, all mapped to the complete level vectors they induce and
// planned as one histogram plan, since a search's predicate reads only
// histograms; the scratch roots its plans scan serve the search's later
// plans. The hand-off is where the search meets the cache, so it
// counts each vector once per search: a hit when the vector is published
// at its first request, a miss when the batch materializes it. The
// search predicate's reads then count nothing, and a vector that several
// of the search's nodes induce (Incognito's subset nodes and the full
// nodes they equal) counts once.
func (s *Snapshot) subsetPrefetch() lattice.SubsetPrefetch {
	requested := map[string]bool{}
	var scratch []cached
	return func(subsets [][]int, nodes []lattice.Node) error {
		vecs, err := s.vectors(subsets, nodes)
		if err != nil {
			return err
		}
		for _, vec := range vecs {
			key := lattice.Node(vec).Key()
			if requested[key] {
				continue
			}
			requested[key] = true
			if _, ok := s.st.cache.peek(key, false); ok {
				s.st.cache.countHit()
			}
		}
		return s.prefetch(vecs, false, &scratch)
	}
}

// vectors maps subset nodes to the complete level vectors they induce.
func (s *Snapshot) vectors(subsets [][]int, nodes []lattice.Node) ([][]int, error) {
	vecs := make([][]int, len(nodes))
	for i := range nodes {
		vec, err := s.p.vector(subsets[i], nodes[i])
		if err != nil {
			return nil, err
		}
		vecs[i] = vec
	}
	return vecs, nil
}

// fullSubsets is the subset of every listed QI, once per node.
func (s *Snapshot) fullSubsets(n int) [][]int {
	subsets := make([][]int, n)
	for i := range subsets {
		subsets[i] = s.p.layout.all
	}
	return subsets
}

// MaterializeNodes fills the snapshot's cache for the given full-lattice
// nodes in one planned sweep: the whole set is scheduled as a derivation
// DAG (base scans only at its roots, every other node coarsened from its
// cheapest parent) and executed level by level on the problem's worker
// budget. Afterwards Bucketize on any of the nodes is a cache hit. A node
// outside the lattice fails the call before anything is materialized.
// Only the nodes it materializes count, each as a miss; the caller's
// later Bucketize calls count their hits. The nodes are materialized with
// their row ids; a caller that reads only histograms calls
// BucketizeHistograms instead.
func (s *Snapshot) MaterializeNodes(nodes []lattice.Node) error {
	vecs, err := s.vectors(s.fullSubsets(len(nodes)), nodes)
	if err != nil {
		return err
	}
	return s.prefetch(vecs, true, nil)
}

// BucketizeHistograms returns the bucketizations at the given full-lattice
// nodes, in order, for a caller that reads only what a bucket's privacy
// state is made of under the random-worlds model (§2.1): each bucket's
// size, key, representative row and histogram, which is all that every
// criterion in internal/privacy, every metric in internal/utility and the
// MINIMIZE1/2 DP read. A returned bucketization may hold no row ids
// (every Bucket.Tuples nil). A node cached in either form costs one cache
// peek; the nodes cached in neither are materialized as one histogram
// plan: one base scan at most, and every other node coarsened in
// O(source buckets) without reading a row. A node outside the lattice
// fails the call before anything is materialized. Each requested node
// found cached counts a hit, and each materialized one a miss.
func (s *Snapshot) BucketizeHistograms(nodes []lattice.Node) ([]*bucket.Bucketization, error) {
	vecs, err := s.vectors(s.fullSubsets(len(nodes)), nodes)
	if err != nil {
		return nil, err
	}
	out := make([]*bucket.Bucketization, len(vecs))
	var missing [][]int
	for i, vec := range vecs {
		bz, ok := s.st.cache.peek(lattice.Node(vec).Key(), false)
		if !ok {
			missing = append(missing, vec)
			continue
		}
		s.st.cache.countHit()
		out[i] = bz
	}
	if len(missing) == 0 {
		return out, nil
	}
	if err := s.prefetch(missing, false, nil); err != nil {
		return nil, err
	}
	for i, vec := range vecs {
		if out[i] == nil {
			if out[i], err = s.cached(vec, false); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

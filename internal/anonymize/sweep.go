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
// parent's result through bucket.CoarsenIndexed. Each result's row index
// goes down to its children, so only a source that came without one (a
// cached entry, or one another plan materialized) is indexed from its
// tuples, once per plan and only if a child derives from it. Every
// materialization goes through here, including a single cache miss (a
// one-node plan), and concurrent plans that need one level vector
// materialize it once: the first claims its cache entry, the others wait
// on the pending entry and reuse its bucketization. Planning changes
// which source each derivation uses and when, never what it produces:
// coarsening yields the identical bucketization from any component-wise
// finer source, and that is the direct scan's result.

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
	// uncached level vector of a batch.
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
// pinned version's cache. It is the Snapshot side of the lattice searches'
// frontier hand-off, and the whole of a cache miss.
func (s *Snapshot) prefetch(vecs [][]int) error {
	if len(vecs) == 0 {
		return nil
	}
	_, err := s.runPlan(s.buildPlan(vecs))
	return err
}

// planResult is one derivation source of a running plan: a planned node's
// bucketization or a cached source, with its row index. A scan or a
// coarsening hands over the index its call returned; any other source is
// indexed from its tuples on first use, once however many children derive
// from it.
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
// only.
func (s *Snapshot) runPlan(pl *sweepPlan) ([]*planResult, error) {
	if len(pl.nodes) == 0 {
		return nil, nil
	}
	ctr := &s.p.sweepCtr
	ctr.sweeps.Add(1)
	ctr.planned.Add(uint64(len(pl.nodes)))
	rows := s.st.enc.Rows()
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
			res, err := s.runNode(&pl.nodes[idx], results, sources, rows)
			if err != nil {
				return err
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
// the leader's row index stays with the leader's plan.
func (s *Snapshot) runNode(n *planNode, results []*planResult, sources map[*bucket.Bucketization]*planResult, rows int) (*planResult, error) {
	e, leader := s.st.cache.claim(n.key, n.vec)
	if leader {
		return s.lead(e, n, results, sources, rows)
	}
	bz, err := e.wait()
	if err != nil {
		return nil, err
	}
	s.p.sweepCtr.reused.Add(1)
	return &planResult{bz: bz}, nil
}

// lead materializes n under its claimed entry e — a base scan at a DAG
// root, a coarsening otherwise — and publishes the result, or, on any
// failure (a panic included), abandons e so its waiters fail instead of
// hanging.
func (s *Snapshot) lead(e *cacheEntry, n *planNode, results []*planResult, sources map[*bucket.Bucketization]*planResult, rows int) (res *planResult, err error) {
	st := s.st
	ctr := &s.p.sweepCtr
	defer func() {
		if res != nil {
			st.cache.publish(n.key, e, res.bz)
			return
		}
		if err == nil {
			err = fmt.Errorf("anonymize: materializing %v was abandoned", n.vec)
		}
		st.cache.abandon(n.key, e, err)
	}()
	levels := s.p.levels(n.vec)
	var bz *bucket.Bucketization
	var index *bucket.Index
	if n.parent < 0 && n.source == nil {
		bz, index, err = bucket.ScanIndexed(st.enc, st.compiled, levels)
		ctr.baseScans.Add(1)
	} else {
		from := sources[n.source]
		if n.parent >= 0 {
			from = results[n.parent]
		}
		var fromIdx *bucket.Index
		if fromIdx, err = from.index(rows); err == nil {
			bz, index, err = bucket.CoarsenIndexed(from.bz, fromIdx, st.enc, st.compiled, levels)
		}
		ctr.coarsened.Add(1)
	}
	if err != nil {
		return nil, err
	}
	// Each materialization counts as one cache miss.
	st.cache.countMiss()
	ctr.predicted.Add(uint64(n.predicted))
	ctr.actual.Add(uint64(len(bz.Buckets)))
	return &planResult{bz: bz, idx: index}, nil
}

// nodePrefetch adapts the planner to the full-node searches' frontier
// hand-off: a full node is the subset request over every listed QI.
func (s *Snapshot) nodePrefetch() lattice.Prefetch {
	return func(nodes []lattice.Node) error {
		subsets := make([][]int, len(nodes))
		for i := range subsets {
			subsets[i] = s.p.layout.all
		}
		return s.subsetPrefetch()(subsets, nodes)
	}
}

// subsetPrefetch adapts the planner to Incognito's layer hand-off: one
// batch spans nodes of several subset lattices, all mapped to the complete
// level vectors they induce and planned as one DAG.
func (s *Snapshot) subsetPrefetch() lattice.SubsetPrefetch {
	return func(subsets [][]int, nodes []lattice.Node) error {
		vecs := make([][]int, len(nodes))
		for i := range nodes {
			vec, err := s.p.vector(subsets[i], nodes[i])
			if err != nil {
				return err
			}
			vecs[i] = vec
		}
		return s.prefetch(vecs)
	}
}

// MaterializeNodes fills the snapshot's cache for the given full-lattice
// nodes in one planned sweep: the whole set is scheduled as a derivation
// DAG (base scans only at its roots, every other node coarsened from its
// cheapest parent) and executed level by level on the problem's worker
// budget. Afterwards Bucketize on any of the nodes is a cache hit. A node
// outside the lattice fails the call before anything is materialized.
func (s *Snapshot) MaterializeNodes(nodes []lattice.Node) error {
	return s.nodePrefetch()(nodes)
}

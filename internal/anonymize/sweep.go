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
// cached entry, or a node a racing sweep filled) is indexed from its
// tuples, once per plan. Every materialization goes through here,
// including a single cache miss (a one-node plan). Planning changes which
// source each derivation uses and when, never what it produces:
// coarsening yields the identical bucketization from any component-wise
// finer source, and that is the direct scan's result.

// subsetNode pairs a QI-dimension subset with a node of its sub-lattice —
// the unit of work a sweep materializes (full-lattice sweeps use the
// identity subset).
type subsetNode struct {
	subset []int
	node   lattice.Node
}

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
	// Sweeps counts planned sweeps executed (one per non-empty frontier
	// batch handed to the planner, including one per cache miss).
	Sweeps uint64
	// PlannedNodes counts DAG nodes across all sweeps.
	PlannedNodes uint64
	// BaseScans counts planned nodes materialized by a full row scan
	// (DAG roots with no usable source).
	BaseScans uint64
	// Coarsened counts planned nodes derived from a parent by
	// bucket.CoarsenIndexed.
	Coarsened uint64
	// Reused counts planned nodes that needed no work: their vector was
	// already materialized (racing sweep or an exact cached source).
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

// prefetch plans and materializes one batch of units against the pinned
// version's cache. It is the Snapshot side of the lattice searches'
// frontier hand-off, and the whole of a cache miss.
func (s *Snapshot) prefetch(units []subsetNode) error {
	if len(units) == 0 {
		return nil
	}
	pl, err := s.buildPlan(units)
	if err != nil {
		return err
	}
	_, err = s.runPlan(pl)
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
	st := s.st
	ctr := &s.p.sweepCtr
	ctr.sweeps.Add(1)
	ctr.planned.Add(uint64(len(pl.nodes)))
	rows := st.enc.Rows()
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
			n := &pl.nodes[idx]
			bz, cached := st.cache.peek(n.keys[0])
			var res *planResult
			switch {
			case cached:
				// A racing sweep materialized the vector since planning;
				// both values are byte-identical, either serves.
				ctr.reused.Add(1)
				res = &planResult{bz: bz}
			case n.exact:
				res = sources[n.source]
				ctr.reused.Add(1)
			default:
				var index *bucket.Index
				var err error
				if n.parent < 0 && n.source == nil {
					bz, index, err = bucket.ScanIndexed(st.enc, st.compiled, n.levels)
					ctr.baseScans.Add(1)
				} else {
					from := sources[n.source]
					if n.parent >= 0 {
						from = results[n.parent]
					}
					var fromIdx *bucket.Index
					if fromIdx, err = from.index(rows); err == nil {
						bz, index, err = bucket.CoarsenIndexed(from.bz, fromIdx, st.enc, st.compiled, n.levels)
					}
					ctr.coarsened.Add(1)
				}
				if err != nil {
					return err
				}
				// Each materialization counts as one cache miss.
				st.cache.countMiss()
				ctr.predicted.Add(uint64(n.predicted))
				ctr.actual.Add(uint64(len(bz.Buckets)))
				res = &planResult{bz: bz, idx: index}
			}
			results[idx] = res
			for _, k := range n.keys {
				st.cache.put(k, cacheEntry{bz: res.bz, levels: n.levels, vec: n.vec})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// identitySubset is the all-dimensions subset full-lattice sweeps use.
func identitySubset(n int) []int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return id
}

// nodePrefetch adapts the planner to the full-node searches' frontier
// hand-off.
func (s *Snapshot) nodePrefetch() lattice.Prefetch {
	id := identitySubset(len(s.p.QI))
	return func(nodes []lattice.Node) error {
		units := make([]subsetNode, len(nodes))
		for i, n := range nodes {
			units[i] = subsetNode{subset: id, node: n}
		}
		return s.prefetch(units)
	}
}

// subsetPrefetch adapts the planner to Incognito's layer hand-off: one
// batch spans nodes of several subset lattices, all mapped into the full
// level-vector space and planned as one DAG.
func (s *Snapshot) subsetPrefetch() lattice.SubsetPrefetch {
	return func(subsets [][]int, nodes []lattice.Node) error {
		units := make([]subsetNode, len(nodes))
		for i := range nodes {
			units[i] = subsetNode{subset: subsets[i], node: nodes[i]}
		}
		return s.prefetch(units)
	}
}

// MaterializeNodes fills the snapshot's cache for the given full-lattice
// nodes in one planned sweep: the whole set is scheduled as a derivation
// DAG (base scans only at its roots, every other node coarsened from its
// cheapest parent) and executed level by level on the problem's worker
// budget. Afterwards Bucketize on any of the nodes is a cache hit.
func (s *Snapshot) MaterializeNodes(nodes []lattice.Node) error {
	for _, n := range nodes {
		if !s.p.space.Contains(n) {
			return fmt.Errorf("anonymize: node %v outside lattice %v", n, s.p.space.Dims())
		}
	}
	return s.nodePrefetch()(nodes)
}

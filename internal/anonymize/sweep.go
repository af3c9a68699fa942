package anonymize

import (
	"fmt"
	"sync/atomic"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/parallel"
)

// This file executes the derivation DAGs plan.go builds: frontiers run in
// ascending height order, each frontier evaluated as one batch on the
// problem's worker budget, every non-root node coarsening from its
// parent's result through bucket.CoarsenInto. Every materialization
// goes through here, including a single cache miss (a one-node plan).
// Planning changes which source each derivation uses and when, never what
// it produces: bucket.CoarsenInto yields the identical bucketization from
// any component-wise finer source, and that is the direct scan's result.

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
	// bucket.CoarsenInto.
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
	return s.runPlan(pl)
}

// runPlan executes a derivation DAG frontier by frontier. Heights run in
// ascending order, so every parent's result exists before its children
// derive from it; within a frontier, nodes are independent and evaluate
// as one parallel batch.
func (s *Snapshot) runPlan(pl *sweepPlan) error {
	if len(pl.nodes) == 0 {
		return nil
	}
	st := s.st
	ctr := &s.p.sweepCtr
	ctr.sweeps.Add(1)
	ctr.planned.Add(uint64(len(pl.nodes)))
	results := make([]*bucket.Bucketization, len(pl.nodes))
	for _, frontier := range pl.frontiers {
		err := parallel.ForEach(s.p.opts.Workers, len(frontier), func(i int) error {
			idx := frontier[i]
			n := &pl.nodes[idx]
			bz, cached := st.cache.peek(n.keys[0])
			switch {
			case cached:
				// A racing sweep materialized the vector since planning;
				// both values are byte-identical, either serves.
				ctr.reused.Add(1)
			case n.exact:
				bz = n.source
				ctr.reused.Add(1)
			default:
				src := n.source
				if n.parent >= 0 {
					src = results[n.parent]
				}
				var err error
				if src == nil {
					bz, err = bucket.FromGeneralizationEncoded(st.enc, st.compiled, n.levels)
					ctr.baseScans.Add(1)
				} else {
					bz, err = bucket.CoarsenInto(src, st.enc, st.compiled, n.levels)
					ctr.coarsened.Add(1)
				}
				if err != nil {
					return err
				}
				// Each materialization counts as one cache miss.
				st.cache.countMiss()
				ctr.predicted.Add(uint64(n.predicted))
				ctr.actual.Add(uint64(len(bz.Buckets)))
			}
			results[idx] = bz
			for _, k := range n.keys {
				st.cache.put(k, cacheEntry{bz: bz, levels: n.levels, vec: n.vec})
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
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

package anonymize

import (
	"sort"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/lattice"
)

// This file plans a sweep: given the level vectors a search is about to
// evaluate — one lattice level, one Incognito layer, a chain's probe set,
// a whole lattice, or the single node of a cache miss — it builds the
// derivation DAG the executor in sweep.go then runs. Planning is the
// classic data-cube scheduling problem: every requested node either
// coarsens from a parent (a cheaper, finer node of the same sweep or an
// already-cached source) or falls back to a base row scan at the DAG's
// roots, and each node picks the parent minimizing its predicted source
// bucket count, since coarsening cost is linear in source buckets.
// Predictions combine the two available bounds — the product of
// per-dimension generalized cardinalities at the node's levels, and the
// parent's own (predicted or actual) count — both capped by the row
// count.
//
// planNode values are written only here (the snapshotmut analyzer pins
// the type to this file); the executor and its concurrent frontier
// workers treat the finished plan as read-only.

// planNode is one node of a sweep's derivation DAG: the complete level
// vector it materializes and the derivation the planner chose for it.
type planNode struct {
	vec    []int  // complete level vector, schema QI order
	key    string // vec's lattice key: the node's cache entry
	height int    // lattice height (level sum) of vec

	// Exactly one derivation applies: parent ≥ 0 coarsens from another
	// planned node's result; otherwise source, when non-nil, is an
	// already-materialized bucketization to coarsen from; a root with
	// nil source is a base row scan.
	parent    int
	source    *bucket.Bucketization
	predicted int // predicted output bucket count
}

// sweepPlan is a finished derivation DAG: nodes in planning order and the
// execution frontiers — node indices grouped by ascending height, so
// every parent completes a frontier before its children start.
type sweepPlan struct {
	nodes     []planNode
	frontiers [][]int
}

// buildPlan collects the level vectors the sweep must materialize
// (deduplicated, and already-cached vectors dropped), then schedules each
// node's derivation. Nodes are planned in (height, lexicographic) order,
// so the plan is deterministic for a given cache state, and candidate
// ties break fewest buckets first, then lexicographically smallest
// vector, with cached sources preferred over same-cost planned
// predictions (their counts are actual, not estimates).
func (s *Snapshot) buildPlan(vecs [][]int) *sweepPlan {
	st := s.st
	planned := map[string]bool{}
	var nodes []planNode
	for _, vec := range vecs {
		key := lattice.Node(vec).Key()
		if planned[key] {
			continue
		}
		if _, ok := st.cache.peek(key); ok {
			continue
		}
		planned[key] = true
		nodes = append(nodes, planNode{vec: vec, key: key, height: vecHeight(vec), parent: -1})
	}
	if len(nodes) == 0 {
		return &sweepPlan{}
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].height != nodes[j].height {
			return nodes[i].height < nodes[j].height
		}
		return lessVec(nodes[i].vec, nodes[j].vec)
	})

	var sources []*cacheEntry
	st.cache.each(func(_ string, e *cacheEntry) { sources = append(sources, e) })
	rows := st.tab.Len()
	cards := s.levelCards()
	for idx := range nodes {
		pn := &nodes[idx]
		bound := cardBound(cards, pn.vec, rows)
		// Choose the cheapest derivation: minimize (bucket count, kind,
		// vector), kind ordering sources before planned nodes.
		const (
			kindSource  = 0
			kindPlanned = 1
		)
		bestCost, bestKind := -1, 0
		var bestVec []int
		better := func(cost, kind int, vec []int) bool {
			if bestCost < 0 {
				return true
			}
			if cost != bestCost {
				return cost < bestCost
			}
			if kind != bestKind {
				return kind < bestKind
			}
			return lessVec(vec, bestVec)
		}
		for _, e := range sources {
			if !leqVec(e.vec, pn.vec) {
				continue
			}
			if cost := len(e.bz.Buckets); better(cost, kindSource, e.vec) {
				bestCost, bestKind, bestVec = cost, kindSource, e.vec
				pn.parent, pn.source = -1, e.bz
			}
		}
		for j := 0; j < idx; j++ {
			o := &nodes[j]
			if o.height >= pn.height || !leqVec(o.vec, pn.vec) {
				continue
			}
			if better(o.predicted, kindPlanned, o.vec) {
				bestCost, bestKind, bestVec = o.predicted, kindPlanned, o.vec
				pn.parent, pn.source = j, nil
			}
		}
		pn.predicted = bound // a base-scan root's
		if bestCost >= 0 {
			pn.predicted = min(bound, bestCost)
		}
	}

	pl := &sweepPlan{nodes: nodes}
	for i := range nodes {
		if n := len(pl.frontiers); n == 0 || nodes[pl.frontiers[n-1][0]].height != nodes[i].height {
			pl.frontiers = append(pl.frontiers, []int{i})
			continue
		}
		last := len(pl.frontiers) - 1
		pl.frontiers[last] = append(pl.frontiers[last], i)
	}
	return pl
}

// leqVec reports a ≤ b component-wise.
func leqVec(a, b []int) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// lessVec reports a < b lexicographically (equal-length vectors).
func lessVec(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// vecHeight is the lattice height of a level vector: the sum of its
// levels.
func vecHeight(vec []int) int {
	h := 0
	for _, l := range vec {
		h += l
	}
	return h
}

// cardBound is the cardinality bound on a node's bucket count: the
// product of per-dimension generalized cardinalities at its levels,
// capped by the row count (a bucketization never has more buckets than
// rows or than distinct generalized tuples).
func cardBound(cards [][]int, vec []int, rows int) int {
	prod := 1
	for i, l := range vec {
		c := cards[i]
		if l >= len(c) {
			l = len(c) - 1
		}
		prod *= c[l]
		if prod >= rows || prod < 0 { // cap early; also guards overflow
			return rows
		}
	}
	return prod
}

// levelCards returns, per schema QI dimension (level-vector order), the
// generalized-value cardinality at every hierarchy level: the dictionary
// size at level 0 and the compiled hierarchy's level cardinality above.
func (s *Snapshot) levelCards() [][]int {
	st := s.st
	schema := st.tab.Schema
	qi := schema.QuasiIdentifiers()
	cards := make([][]int, len(qi))
	for i, col := range qi {
		dictLen := st.enc.Dicts[col].Len()
		if ch, ok := st.compiled[schema.Attrs[col].Name]; ok {
			c := make([]int, ch.Levels())
			c[0] = dictLen
			for l := 1; l < len(c); l++ {
				c[l] = ch.Cardinality(l)
			}
			cards[i] = c
		} else {
			cards[i] = []int{dictLen}
		}
	}
	return cards
}

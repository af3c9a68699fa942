// Package anonymize ties the substrates together: given a table,
// generalization hierarchies and a privacy criterion, it searches the
// full-domain generalization lattice for minimally sanitized bucketizations
// (§3.4 of the paper) via naive monotone search, Incognito, or chain binary
// search, and ranks results by a utility metric.
//
// A Problem is versioned: Append streams new rows into it, patching the
// warm bucketization cache incrementally, while Snapshot pins one version
// for the duration of a search, so long-running jobs and concurrent
// appends never observe each other.
package anonymize

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/parallel"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/table"
	"ckprivacy/internal/utility"
)

// state is one immutable version of a problem's data: a pinned row view,
// the columnar substrate at that version, and the warm cache built over
// it. Append never mutates a state — it builds the successor
// and swaps the problem's current-state pointer, so every Snapshot keeps
// computing on exactly the version it pinned.
type state struct {
	// version numbers the states, starting at 1 for the freshly built
	// problem and incremented by every non-empty Append.
	version int64
	// tab is the pinned row view: exactly the rows of this version, backed
	// by (a prefix of) the master table's storage.
	tab *table.Table
	// enc and compiled are the columnar substrate pinned at this version.
	enc      *table.Encoded
	compiled hierarchy.CompiledSet
	// cache holds the version's bucketizations, one entry per complete
	// level vector.
	cache *bucketizeCache
}

// Problem describes one anonymization task. It is the single owner of its
// dataset's warm state: the encoded view, the compiled hierarchies and
// the bucketization cache, whose buckets carry their MINIMIZE1 rows.
// Callers that bucketize or compute disclosure over the dataset go
// through the Problem (Bucketize, Engine, CKSafety) rather than building
// a second copy of any of these.
type Problem struct {
	// Table is the master table; Append grows it in place. Read it through
	// Snapshot (or Problem methods, which pin a snapshot per call) when
	// appends may run concurrently.
	Table *table.Table
	// Hierarchies generalize the quasi-identifier attributes.
	Hierarchies hierarchy.Set
	// QI lists the quasi-identifier attribute names, fixing the lattice's
	// dimension order.
	QI []string

	space  lattice.Space
	opts   Options
	layout vecLayout

	engine *core.Engine

	// master is the append-only encoded view shared by all versions.
	// appendMu serializes Append; cur is the atomically swapped current
	// version.
	master   *table.Encoded
	appendMu sync.Mutex
	cur      atomic.Pointer[state]

	// sweepCtr accumulates the sweep planner's lifetime counters across
	// versions; SweepStats snapshots them.
	sweepCtr sweepCounters
}

// vecLayout maps requests onto complete level vectors. In full-domain
// generalization (§3.4) a complete level vector — one level per schema QI
// attribute, in schema order — fixes the bucketization, and an Incognito
// subset node is the full-lattice bucketization with every QI outside the
// subset at its top level. The vector is therefore the one name of a
// materialization: its cache key, its claim and its planner unit.
type vecLayout struct {
	top   []int    // the full-suppression vector
	pos   []int    // pos[d]: listed QI d's position in the vector
	dims  []int    // dims[d]: listed QI d's level count
	all   []int    // the identity subset over the listed QIs
	names []string // the schema QI attribute names, in vector order
	// err is set when a schema QI outside the listed ones has no
	// hierarchy to suppress it with: every bucketization fails with it.
	err error
}

// newVecLayout builds the layout of a problem's schema, hierarchies and
// listed QIs, which newProblem has validated to be schema attributes with
// hierarchies (dims holds their level counts).
func newVecLayout(s *table.Schema, hs hierarchy.Set, qi []string, dims []int) vecLayout {
	l := vecLayout{pos: make([]int, len(qi)), dims: dims, all: make([]int, len(qi))}
	at := map[string]int{}
	for i, col := range s.QuasiIdentifiers() {
		name := s.Attrs[col].Name
		at[name] = i
		l.names = append(l.names, name)
		h, ok := hs[name]
		if !ok {
			if l.err == nil {
				l.err = fmt.Errorf("anonymize: schema attribute %q has no hierarchy and is not a listed QI", name)
			}
			l.top = append(l.top, 0)
			continue
		}
		l.top = append(l.top, h.Levels()-1)
	}
	for d, name := range qi {
		l.pos[d], l.all[d] = at[name], d
	}
	return l
}

// vector returns the complete level vector a request induces: the subset
// dimensions at the node's levels, every other schema QI at its top level.
// A subset dimension or a level outside the lattice is an error.
func (p *Problem) vector(subset []int, node lattice.Node) ([]int, error) {
	l := &p.layout
	if l.err != nil {
		return nil, l.err
	}
	if len(subset) != len(node) {
		return nil, fmt.Errorf("anonymize: subset/node length mismatch: %d vs %d", len(subset), len(node))
	}
	vec := append([]int(nil), l.top...)
	for i, d := range subset {
		if d < 0 || d >= len(l.pos) {
			return nil, fmt.Errorf("anonymize: subset dimension %d out of range", d)
		}
		if node[i] < 0 || node[i] >= l.dims[d] {
			return nil, fmt.Errorf("anonymize: level %d for attribute %q outside [0, %d)", node[i], p.QI[d], l.dims[d])
		}
		vec[l.pos[d]] = node[i]
	}
	return vec, nil
}

// levels expands a level vector into the per-attribute assignment the
// bucketizers take; only a scan, a coarsening or an append patch needs it.
func (p *Problem) levels(vec []int) bucket.Levels {
	lv := make(bucket.Levels, len(vec))
	for i, name := range p.layout.names {
		lv[name] = vec[i]
	}
	return lv
}

// Options configures a Problem at construction. The zero value resolves
// like DefaultOptions() except where a field documents otherwise; build
// from DefaultOptions() and override fields rather than relying on zero
// values.
type Options struct {
	// Workers is the worker budget of the lattice searches: node predicates
	// of one lattice level are bucketized and safety-checked on up to this
	// many goroutines. Values < 1 mean one worker per CPU core. The default
	// is 1 (fully serial). Every search returns byte-identical nodes at
	// every worker count; the level-wise searches also report identical
	// Stats, while ChainSearch's Evaluated count varies with the budget
	// (multi-section probing).
	Workers int
}

// DefaultOptions returns the options NewProblem uses: serial lattice
// search.
func DefaultOptions() Options {
	return Options{Workers: 1}
}

// resolved normalizes the options: the worker budget materializes its
// per-core default so accessors report actual counts.
func (o Options) resolved() Options {
	o.Workers = parallel.Workers(o.Workers)
	return o
}

// NewProblem validates the inputs and precomputes the lattice shape with
// DefaultOptions.
func NewProblem(t *table.Table, hs hierarchy.Set, qi []string) (*Problem, error) {
	return NewProblemWithOptions(t, hs, qi, DefaultOptions())
}

// NewProblemWithOptions is NewProblem with the configuration spelled out
// as a struct. The table is dictionary-encoded once and the hierarchies
// are compiled over it; every bucketization, search and serving request
// on the problem reuses that columnar view. A table value a hierarchy does
// not cover, or hierarchy levels that are not nested coarsenings, are
// rejected with an error naming the attribute: the lattice searches prune
// by monotonicity (Theorem 14), which only holds on nested hierarchies.
func NewProblemWithOptions(t *table.Table, hs hierarchy.Set, qi []string, o Options) (*Problem, error) {
	if t == nil || t.Len() == 0 {
		return nil, fmt.Errorf("anonymize: empty table")
	}
	return newProblem(t.Encode(), hs, qi, 1, o)
}

// NewProblemFromEncoded builds a problem directly over an existing master
// encoded view, resuming at the given dataset version. It is the durable
// store's warm-boot path: the view (rebuilt from a columnar snapshot via
// table.NewEncodedFromParts, then extended by WAL replay) becomes the
// problem's master without re-encoding the rows, and version restores the
// dataset version counter so versioned clients see no reset across a
// restart.
func NewProblemFromEncoded(enc *table.Encoded, hs hierarchy.Set, qi []string, version int64, o Options) (*Problem, error) {
	return newProblem(enc, hs, qi, version, o)
}

// newProblem validates the inputs and builds a Problem over a master
// encoded view: lattice space, engine, compiled hierarchies and the first
// pinned version.
func newProblem(enc *table.Encoded, hs hierarchy.Set, qi []string, version int64, o Options) (*Problem, error) {
	t := enc.Table
	if t == nil || t.Len() == 0 {
		return nil, fmt.Errorf("anonymize: empty table")
	}
	if version < 1 {
		return nil, fmt.Errorf("anonymize: version %d < 1", version)
	}
	if len(qi) == 0 {
		return nil, fmt.Errorf("anonymize: no quasi-identifiers")
	}
	for _, name := range qi {
		col := t.Schema.Index(name)
		if col < 0 {
			return nil, fmt.Errorf("anonymize: attribute %q not in schema", name)
		}
		if col == t.Schema.SensitiveIndex {
			return nil, fmt.Errorf("anonymize: sensitive attribute %q cannot be a quasi-identifier", name)
		}
	}
	dims, err := hs.Dims(qi)
	if err != nil {
		return nil, fmt.Errorf("anonymize: %w", err)
	}
	space, err := lattice.NewSpace(dims)
	if err != nil {
		return nil, fmt.Errorf("anonymize: %w", err)
	}
	chs, err := bucket.CompileHierarchies(enc, hs)
	if err != nil {
		return nil, fmt.Errorf("anonymize: %w", err)
	}
	p := &Problem{
		Table:       t,
		Hierarchies: hs,
		QI:          append([]string(nil), qi...),
		space:       space,
		opts:        o.resolved(),
		layout:      newVecLayout(t.Schema, hs, qi, dims),
		master:      enc,
		engine:      core.NewEngine(),
	}
	// The pinned view ([:n:n]) keeps a snapshot taken before the first
	// Append from ever observing rows the master grows by.
	snap := enc.Snapshot()
	p.cur.Store(&state{
		version:  version,
		tab:      snap.Table,
		enc:      snap,
		compiled: chs,
		cache:    newBucketizeCache(),
	})
	return p, nil
}

// EncodingInfo describes a problem's columnar state.
type EncodingInfo struct {
	// Cardinalities is the per-attribute dictionary size (distinct ground
	// values), keyed by attribute name.
	Cardinalities map[string]int
}

// Encoding reports the current version's per-attribute dictionary
// cardinalities.
func (p *Problem) Encoding() EncodingInfo {
	return EncodingInfo{Cardinalities: p.cur.Load().enc.Cardinalities()}
}

// Engine returns the problem-scoped disclosure engine, whose counters
// count the MINIMIZE1 rows this problem's disclosure calls read from
// buckets and build. The rows themselves live on the buckets, so any
// engine reuses them; running every disclosure over this problem's
// bucketizations (criteria via CKSafety, direct MaxDisclosure calls) on
// this one only keeps the problem's counts in one place. The engine spans
// versions: an append shares its untouched buckets, rows included, with
// the version it derives from.
func (p *Problem) Engine() *core.Engine { return p.engine }

// CKSafety builds the paper's (c,k)-safety criterion wired to the
// problem-scoped engine.
func (p *Problem) CKSafety(c float64, k int) privacy.CKSafety {
	return privacy.CKSafety{C: c, K: k, Engine: p.engine}
}

// Space returns the full-domain generalization lattice.
func (p *Problem) Space() lattice.Space { return p.space }

// CacheStats snapshots the current version's bucketization-cache counters
// (hit/miss totals are carried across appends, so they are cumulative for
// the problem's lifetime); a long-lived Problem shared across requests
// reports its warm-state effectiveness through this.
func (p *Problem) CacheStats() CacheStats { return p.cur.Load().cache.stats() }

// Version returns the problem's current dataset version: 1 at
// construction, incremented by every non-empty Append.
func (p *Problem) Version() int64 { return p.cur.Load().version }

// Rows returns the current version's row count.
func (p *Problem) Rows() int { return p.cur.Load().tab.Len() }

// NodeForLevels converts a per-attribute level assignment into a lattice
// node in the problem's QI order. Attributes absent from levels stay at
// level 0; attributes outside the QI list, or levels outside the
// hierarchy's range, are errors.
func (p *Problem) NodeForLevels(levels bucket.Levels) (lattice.Node, error) {
	idx := make(map[string]int, len(p.QI))
	for i, name := range p.QI {
		idx[name] = i
	}
	node := make(lattice.Node, len(p.QI))
	dims := p.space.Dims()
	for name, lvl := range levels {
		i, ok := idx[name]
		if !ok {
			return nil, fmt.Errorf("anonymize: attribute %q is not a quasi-identifier (have %v)", name, p.QI)
		}
		if lvl < 0 || lvl >= dims[i] {
			return nil, fmt.Errorf("anonymize: level %d for attribute %q outside [0, %d)", lvl, name, dims[i])
		}
		node[i] = lvl
	}
	if !p.space.Contains(node) {
		return nil, fmt.Errorf("anonymize: levels %v outside lattice %v over %v", levels, p.space.Dims(), p.QI)
	}
	return node, nil
}

// Workers returns the resolved lattice-search worker budget (at least 1).
func (p *Problem) Workers() int { return p.opts.Workers }

// Options returns the problem's resolved configuration: worker budgets
// materialized to actual counts.
func (p *Problem) Options() Options { return p.opts }

// Snapshot pins the problem's current version: every Bucketize and search
// on the returned Snapshot computes over exactly the rows, dictionaries
// and warm caches of that version, regardless of concurrent Appends. This
// is what lets a long-running anonymization job report a consistent
// result (and its version) while the dataset keeps growing under it.
func (p *Problem) Snapshot() *Snapshot { return &Snapshot{p: p, st: p.cur.Load()} }

// Snapshot is one pinned version of a Problem. It is safe for concurrent
// use; all methods are reads of immutable state plus sharded-cache fills.
type Snapshot struct {
	p  *Problem
	st *state
}

// Version returns the pinned dataset version.
func (s *Snapshot) Version() int64 { return s.st.version }

// Rows returns the pinned version's row count.
func (s *Snapshot) Rows() int { return s.st.tab.Len() }

// Table returns the pinned row view. It never changes, even while the
// problem's master table grows.
func (s *Snapshot) Table() *table.Table { return s.st.tab }

// Problem returns the problem the snapshot was taken from.
func (s *Snapshot) Problem() *Problem { return s.p }

// Encoded returns the pinned columnar view of this version. The view is
// immutable; the durable store serializes its dictionaries and code
// columns directly.
func (s *Snapshot) Encoded() *table.Encoded { return s.st.enc }

// Bucketize materializes the bucketization at a lattice node, with its
// row ids. Attributes outside the problem's QI list are fully ignored for
// grouping only if they are not quasi-identifiers of the schema; schema
// QI attributes not listed in p.QI are treated as suppressed. A node
// outside the lattice is an error.
func (s *Snapshot) Bucketize(node lattice.Node) (*bucket.Bucketization, error) {
	return s.BucketizeSubset(s.p.layout.all, node)
}

// BucketizeSubset materializes the bucketization induced by a subset of the
// QI dimensions at the given (subset-aligned) levels, with its row ids;
// the remaining QI attributes are fully suppressed. The request is named
// by the complete level vector it induces, so a subset node and the full
// node it equals share one cache entry. A cache miss runs as a one-node
// sweep plan, so it derives from the cheapest already-materialized finer
// node exactly like a planned frontier does, and scans the rows only when
// none exists; an entry cached without row ids (a search's, or
// BucketizeHistograms') has them filled in by one scan.
func (s *Snapshot) BucketizeSubset(subset []int, node lattice.Node) (*bucket.Bucketization, error) {
	return s.bucketize(subset, node, true, true)
}

// bucketize is BucketizeSubset for row-id readers (rowIDs) or histogram
// readers, with a cached bucketization counted as a cache hit only when
// count is set. A search's predicate reads histograms without counting:
// its frontier hand-off (subsetPrefetch) already counted the vector.
func (s *Snapshot) bucketize(subset []int, node lattice.Node, count, rowIDs bool) (*bucket.Bucketization, error) {
	vec, err := s.p.vector(subset, node)
	if err != nil {
		return nil, err
	}
	// The cache answers the vector when it holds it in either form: a
	// row-id read of the histogram form only fills in the row ids.
	key := lattice.Node(vec).Key()
	if count {
		if _, ok := s.st.cache.peek(key, false); ok {
			s.st.cache.countHit()
		}
	}
	if bz, ok := s.st.cache.peek(key, rowIDs); ok {
		return bz, nil
	}
	if err := s.prefetch([][]int{vec}, rowIDs, nil); err != nil {
		return nil, err
	}
	return s.cached(vec, rowIDs)
}

// cached returns the bucketization a plan has just cached at vec for
// row-id or histogram readers. Entries of a version are never dropped
// once published, so it is there.
func (s *Snapshot) cached(vec []int, rowIDs bool) (*bucket.Bucketization, error) {
	bz, ok := s.st.cache.peek(lattice.Node(vec).Key(), rowIDs)
	if !ok {
		return nil, fmt.Errorf("anonymize: %v is not cached after its plan", vec)
	}
	return bz, nil
}

// pred adapts a privacy criterion to a search's lattice predicate over
// full nodes. The criterion reads the histogram form.
func (s *Snapshot) pred(crit privacy.Criterion) lattice.Pred {
	return func(n lattice.Node) (bool, error) {
		bz, err := s.bucketize(s.p.layout.all, n, false, false)
		if err != nil {
			return false, err
		}
		return crit.Satisfied(bz)
	}
}

// MinimalSafe returns all ⪯-minimal lattice nodes satisfying the criterion
// using the bottom-up monotone search: each lattice level is materialized
// as one planned sweep, then evaluated on the problem's worker budget. The
// criterion's Satisfied must be safe for concurrent calls when the budget
// exceeds 1 (all criteria in internal/privacy are).
func (s *Snapshot) MinimalSafe(crit privacy.Criterion) ([]lattice.Node, lattice.Stats, error) {
	return lattice.MinimalSatisfyingBatch(s.p.space, s.pred(crit), s.nodePrefetch(), s.p.opts.Workers)
}

// MinimalSafeIncognito returns the same minimal nodes via Incognito's
// subset-pruned search: each layer across the same-size subset lattices is
// materialized as one planned sweep, then evaluated on the problem's
// worker budget.
func (s *Snapshot) MinimalSafeIncognito(crit privacy.Criterion) ([]lattice.Node, lattice.Stats, error) {
	check := func(subset []int, node lattice.Node) (bool, error) {
		bz, err := s.bucketize(subset, node, false, false)
		if err != nil {
			return false, err
		}
		return crit.Satisfied(bz)
	}
	return lattice.IncognitoBatch(s.p.space, check, s.subsetPrefetch(), s.p.opts.Workers)
}

// ChainSearch searches the canonical chain from the most specific to the
// fully generalized node (Theorem 14 makes the predicate monotone along it)
// and returns the lowest safe node on that chain, or ok=false when even the
// top node fails. With a worker budget above 1 the binary search becomes a
// multi-section search probing `workers` chain positions per round.
func (s *Snapshot) ChainSearch(crit privacy.Criterion) (lattice.Node, bool, lattice.Stats, error) {
	chain := s.p.space.Chain()
	idx, stats, err := lattice.BinarySearchChainBatch(chain, s.pred(crit), s.nodePrefetch(), s.p.opts.Workers)
	if err != nil {
		return nil, false, stats, err
	}
	if idx < 0 {
		return nil, false, stats, nil
	}
	return chain[idx], true, stats, nil
}

// BestByUtility returns the index of the candidate node maximizing the
// metric (§3.4: pick the minimal safe bucketization with the highest
// utility), together with its bucketization. A metric reads only sizes
// and histograms, so the candidates are read through one
// BucketizeHistograms call (usually they are cached from the search that
// produced them, and the call plans nothing), and the returned
// bucketization may hold no row ids: Bucketize the chosen node for them.
func (s *Snapshot) BestByUtility(nodes []lattice.Node, m utility.Metric) (int, *bucket.Bucketization, error) {
	if len(nodes) == 0 {
		return -1, nil, fmt.Errorf("anonymize: no candidate nodes")
	}
	bzs, err := s.BucketizeHistograms(nodes)
	if err != nil {
		return -1, nil, err
	}
	best := utility.Best(m, bzs)
	return best, bzs[best], nil
}

// Bucketize materializes the bucketization at a lattice node on the
// current version (each Problem-level call pins its own snapshot; use
// Snapshot directly when several calls must agree on one version).
func (p *Problem) Bucketize(node lattice.Node) (*bucket.Bucketization, error) {
	return p.Snapshot().Bucketize(node)
}

// MinimalSafe runs Snapshot.MinimalSafe on the version current when the
// call starts; the whole search computes on that one pinned version.
func (p *Problem) MinimalSafe(crit privacy.Criterion) ([]lattice.Node, lattice.Stats, error) {
	return p.Snapshot().MinimalSafe(crit)
}

// MinimalSafeIncognito runs Snapshot.MinimalSafeIncognito on the version
// current when the call starts.
func (p *Problem) MinimalSafeIncognito(crit privacy.Criterion) ([]lattice.Node, lattice.Stats, error) {
	return p.Snapshot().MinimalSafeIncognito(crit)
}

// ChainSearch runs Snapshot.ChainSearch on the version current when the
// call starts.
func (p *Problem) ChainSearch(crit privacy.Criterion) (lattice.Node, bool, lattice.Stats, error) {
	return p.Snapshot().ChainSearch(crit)
}

// BestByUtility runs Snapshot.BestByUtility on the version current when
// the call starts.
func (p *Problem) BestByUtility(nodes []lattice.Node, m utility.Metric) (int, *bucket.Bucketization, error) {
	return p.Snapshot().BestByUtility(nodes, m)
}

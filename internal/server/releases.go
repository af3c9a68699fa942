package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"ckprivacy/internal/bucket"
)

// This file is the sequential-release audit: the daemon records each
// published generalization of a dataset (per dataset version) and reports
// the worst-case disclosure of the *intersection* attack across any pair
// of retained releases. Repeated releases of an evolving table are
// themselves an attack surface: an adversary holding releases A and B
// knows each common person lies in the intersection of their bucket in A
// and their bucket in B, a partition strictly finer than either release,
// and each person appended between them lies among the appended persons
// of their bucket in B, whose values B's histogram minus the common
// persons' pins down — so per-release (c,k)-safety does not compose, and
// the pairwise disclosure is the number that has to be watched (Riboni et
// al.'s sequential background-knowledge setting, checked with Martin et
// al.'s worst-case machinery). The audit is pairwise: it bounds what an
// adversary learns from any two retained releases, not from three or
// more at once, whose common refinement can be finer still.

// release is one recorded publication of a dataset generalization, pinned
// to the dataset version it was bucketized at.
type release struct {
	index   int
	version int64
	rows    int
	levels  bucket.Levels
	bz      *bucket.Bucketization
	created time.Time
}

// releaseLog is a dataset's bounded, append-only release history. When
// the bound is hit the oldest release is evicted — the audit then covers
// the retained window, and Evicted tells clients the window is partial.
type releaseLog struct {
	mu      sync.Mutex
	max     int
	next    int
	rs      []*release
	evicted int
}

// add records a new release at the log's next index.
func (l *releaseLog) add(r *release) (index, retained, evicted int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.index = l.next
	l.keepLocked(r)
	return r.index, len(l.rs), l.evicted
}

// replay records a logged release, which must carry exactly the log's
// next index; any other index means the log and this history disagree.
func (l *releaseLog) replay(r *release) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.index != l.next {
		return fmt.Errorf("release record has index %d, log expects %d", r.index, l.next)
	}
	l.keepLocked(r)
	return nil
}

// keepLocked is the log's one retention rule, shared by live releases and
// replay (so leader, follower and restarted windows stay identical given
// equal bounds): advance the index, keep r, evict the oldest release past
// the bound. The caller holds l.mu.
func (l *releaseLog) keepLocked(r *release) {
	l.next++
	l.rs = append(l.rs, r)
	if len(l.rs) > l.max {
		l.rs = l.rs[1:]
		l.evicted++
	}
}

// snapshot returns the retained releases, oldest first.
func (l *releaseLog) snapshot() (rs []*release, evicted int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*release(nil), l.rs...), l.evicted
}

// exportState returns the full log state for durable snapshots.
func (l *releaseLog) exportState() (rs []*release, evicted, next int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*release(nil), l.rs...), l.evicted, l.next
}

// intersect builds the partition an attacker holding both releases can
// derive, and counts the persons present in both. Row identities are
// stable across appends — version v's rows are a prefix of version v+1's
// — so the common persons are exactly the rows of the earlier release.
// Each common person lies in one cell per (bucket in a, bucket in b)
// pair. Each bucket of the later release b also gets one cell of its
// appended persons (rows at or past the earlier release's row count):
// the attacker subtracts what the common persons contribute from that
// bucket's histogram in b, which pins the appended persons' values down
// as a multiset (the differencing attack). Every cell's sensitive
// multiset is read off the pinned source table of b.
func intersect(a, b *release) (cut *bucket.Bucketization, common int) {
	if b.rows < a.rows {
		a, b = b, a
	}
	src := b.bz.Source
	// bucketOf[t] = index of t's bucket in b, for common tuples.
	bucketOf := make([]int, a.rows)
	for i := range bucketOf {
		bucketOf[i] = -1
	}
	var appended [][]string
	for bi, bb := range b.bz.Buckets {
		var fresh []string
		for _, t := range bb.Tuples {
			if t < a.rows {
				bucketOf[t] = bi
			} else {
				fresh = append(fresh, src.SensitiveValue(t))
			}
		}
		if fresh != nil {
			appended = append(appended, fresh)
		}
	}
	type cellKey struct{ ai, bi int }
	cells := make(map[cellKey][]string)
	var order []cellKey
	for ai, ab := range a.bz.Buckets {
		for _, t := range ab.Tuples {
			if t >= a.rows || bucketOf[t] < 0 {
				continue
			}
			k := cellKey{ai, bucketOf[t]}
			if _, ok := cells[k]; !ok {
				order = append(order, k)
			}
			cells[k] = append(cells[k], src.SensitiveValue(t))
			common++
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].ai != order[j].ai {
			return order[i].ai < order[j].ai
		}
		return order[i].bi < order[j].bi
	})
	groups := make([][]string, len(order), len(order)+len(appended))
	for i, k := range order {
		groups[i] = cells[k]
	}
	return bucket.FromValues(append(groups, appended...)...), common
}

// ---- wire shapes ----

type releaseRequest struct {
	// Levels generalizes the dataset's quasi-identifiers for this release;
	// empty means the dataset's default levels.
	Levels bucket.Levels `json:"levels,omitempty"`
}

type releaseInfo struct {
	Index   int           `json:"index"`
	Version int64         `json:"version"`
	Rows    int           `json:"rows"`
	Levels  bucket.Levels `json:"levels"`
	Buckets int           `json:"buckets"`
	// Disclosure is the release's own worst-case disclosure at the audit's
	// k; present on GET responses.
	Disclosure *float64 `json:"disclosure,omitempty"`
}

type releaseCreated struct {
	Dataset  string      `json:"dataset"`
	Release  releaseInfo `json:"release"`
	Retained int         `json:"retained"`
	Evicted  int         `json:"evicted"`
}

// releasePair is one pairwise intersection-attack audit result.
type releasePair struct {
	A int `json:"a"`
	B int `json:"b"`
	// CommonTuples counts the persons in both releases.
	CommonTuples int `json:"common_tuples"`
	// Buckets counts the partition's cells: the bucket-pair cells of the
	// common persons and one cell per later bucket that holds appended
	// persons.
	Buckets int `json:"buckets"`
	// Disclosure is the worst-case disclosure of that partition at the
	// audit's k — the sequential-release number.
	Disclosure float64 `json:"disclosure"`
}

type releasesResponse struct {
	Dataset  string        `json:"dataset"`
	K        int           `json:"k"`
	Releases []releaseInfo `json:"releases"`
	Evicted  int           `json:"evicted"`
	Pairs    []releasePair `json:"pairs"`
	// MaxPairDisclosure is the worst pairwise intersection disclosure;
	// absent with fewer than two retained releases.
	MaxPairDisclosure *float64 `json:"max_pair_disclosure,omitempty"`
	ElapsedMS         float64  `json:"elapsed_ms"`
}

// ---- handlers ----

func (s *Server) handleCreateRelease(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	name := r.PathValue("name")
	ds, ok := s.registry.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("dataset %q not registered", name))
		return
	}
	var req releaseRequest
	if err := s.readJSON(w, r, &req); err != nil {
		writeHTTPError(w, err)
		return
	}
	rel, ok := s.buildRelease(w, r, ds, req.Levels)
	if !ok {
		return
	}
	// The record + WAL write run under appendMu: acquiring it guarantees
	// any append whose rows this release references has finished its own
	// WAL write (appends hold the mutex across apply + log), so the log
	// order matches the data dependency.
	ds.appendMu.Lock()
	if err := s.healIfBrokenLocked(ds); err != nil {
		ds.appendMu.Unlock()
		writePersistFailure(w, err)
		return
	}
	index, retained, evicted := ds.releases.add(rel)
	err := s.logReleaseLocked(ds, rel)
	ds.appendMu.Unlock()
	if err != nil {
		// The release is recorded in memory but not on disk; the dataset is
		// marked broken and the next write heals by compaction.
		writePersistFailure(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, releaseCreated{
		Dataset: name,
		Release: releaseInfo{
			Index:   index,
			Version: rel.version,
			Rows:    rel.rows,
			Levels:  rel.levels,
			Buckets: len(rel.bz.Buckets),
		},
		Retained: retained,
		Evicted:  evicted,
	})
}

// buildRelease bucketizes the dataset's current version at the requested
// levels under the concurrency gate; on failure it has already written the
// error response.
func (s *Server) buildRelease(w http.ResponseWriter, r *http.Request, ds *dataset, levels bucket.Levels) (*release, bool) {
	snap := ds.problem.Snapshot()
	if len(levels) == 0 {
		levels = ds.bundle.DefaultLevels
	}
	node, err := ds.problem.NodeForLevels(levels)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	done, ok := s.acquireGate(w, r)
	if !ok {
		return nil, false
	}
	defer done()
	bz, err := snap.Bucketize(node)
	if err != nil {
		writeHTTPError(w, err)
		return nil, false
	}
	return &release{
		version: snap.Version(),
		rows:    snap.Rows(),
		levels:  levels,
		bz:      bz,
		created: time.Now(),
	}, true
}

func (s *Server) handleListReleases(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := s.registry.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("dataset %q not registered", name))
		return
	}
	k := 1
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("k %q is not an integer", q))
			return
		}
		k = n
	}
	if err := s.checkK(k); err != nil {
		writeHTTPError(w, err)
		return
	}
	done, ok := s.acquireGate(w, r)
	if !ok {
		return
	}
	defer done()
	begin := time.Now()
	eng := ds.problem.Engine()
	rs, evicted := ds.releases.snapshot()
	resp := releasesResponse{Dataset: name, K: k, Evicted: evicted, Releases: make([]releaseInfo, len(rs))}
	for i, rel := range rs {
		d, err := eng.MaxDisclosure(rel.bz, k)
		if err != nil {
			writeHTTPError(w, err)
			return
		}
		resp.Releases[i] = releaseInfo{
			Index:      rel.index,
			Version:    rel.version,
			Rows:       rel.rows,
			Levels:     rel.levels,
			Buckets:    len(rel.bz.Buckets),
			Disclosure: &d,
		}
	}
	for i := 0; i < len(rs); i++ {
		for j := i + 1; j < len(rs); j++ {
			cut, common := intersect(rs[i], rs[j])
			d, err := eng.MaxDisclosure(cut, k)
			if err != nil {
				writeHTTPError(w, err)
				return
			}
			resp.Pairs = append(resp.Pairs, releasePair{
				A:            rs[i].index,
				B:            rs[j].index,
				CommonTuples: common,
				Buckets:      len(cut.Buckets),
				Disclosure:   d,
			})
			if resp.MaxPairDisclosure == nil || d > *resp.MaxPairDisclosure {
				v := d
				resp.MaxPairDisclosure = &v
			}
		}
	}
	resp.ElapsedMS = float64(time.Since(begin)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

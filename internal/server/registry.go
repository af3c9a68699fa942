package server

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/dataload"
)

// ErrAlreadyRegistered marks duplicate-name registrations (HTTP 409).
var ErrAlreadyRegistered = errors.New("already registered")

// dataset is one registered table with its warm state: the bundle (table,
// hierarchies, QI) and a long-lived anonymize.Problem whose sharded
// bucketization cache persists across requests. All disclosure math on the
// dataset flows through the problem so repeated generalizations are
// materialized once. The problem also dictionary-encodes the table and
// compiles the hierarchies when it is built — i.e. exactly once, at
// registration — so every subsequent job/check/disclosure request runs on
// the columnar substrate without re-encoding. Appends stream through the
// problem (POST /v1/datasets/{name}/rows), which patches that warm state
// incrementally and bumps the dataset version; releases record published
// generalizations for the sequential-release audit.
type dataset struct {
	bundle  *dataload.Bundle
	problem *anonymize.Problem
	// appendMu serializes the row-limit check with the append itself, so
	// racing appends cannot jointly overshoot MaxRows. When the dataset is
	// persisted it also serializes every WAL write with the mutation it
	// records, which is what guarantees an append record precedes any
	// release record referencing its rows.
	appendMu sync.Mutex
	releases releaseLog
	// persist is the dataset's durable log; nil when the server runs
	// without a store or the bundle has no rebuild source.
	persist *datasetStore
	// recovered says how this dataset came to exist in this process:
	// "cold" (registered fresh), "snapshot" (loaded with no WAL tail),
	// "wal_replay" (snapshot plus replayed appends/releases) or "replica"
	// (installed from a leader's shipped snapshot).
	recovered string
	// pins retains historical version snapshots for ?version= reads; nil on
	// a leader (only followers pin).
	pins *versionPins
	// repl tracks replication progress and health; nil on a leader.
	repl *replicaState
}

// registry maps dataset names to their warm state.
type registry struct {
	mu     sync.RWMutex
	byName map[string]*dataset
	max    int
}

func newRegistry(max int) *registry {
	return &registry{byName: make(map[string]*dataset), max: max}
}

// nameRE restricts dataset names to something URL-path-safe.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// add registers a bundle under name, building its long-lived Problem with
// the given anonymize options (lattice worker budget). Duplicate names
// and full registries are errors, rejected cheaply before the Problem
// (lattice space, caches) is built; the check repeats at insertion in
// case a racing registration of the same name won in between.
func (r *registry) add(name string, b *dataload.Bundle, opts anonymize.Options, maxReleases int) (*dataset, error) {
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("invalid dataset name %q (want [a-zA-Z0-9._-], max 64 chars)", name)
	}
	r.mu.Lock()
	err := r.capacityLocked(name)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	p, err := anonymize.NewProblemWithOptions(b.Table, b.Hierarchies, b.QI, opts)
	if err != nil {
		return nil, err
	}
	ds := &dataset{bundle: b, problem: p, releases: releaseLog{max: maxReleases}, recovered: "cold"}
	if err := r.insert(name, ds); err != nil {
		return nil, err
	}
	return ds, nil
}

// insert places an already-built dataset in the registry (the recovery
// path builds its problem from a durable snapshot rather than through
// add). Name, duplicate and capacity rules are the same as add's.
func (r *registry) insert(name string, ds *dataset) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("invalid dataset name %q (want [a-zA-Z0-9._-], max 64 chars)", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.capacityLocked(name); err != nil {
		return err
	}
	r.byName[name] = ds
	return nil
}

// replace installs ds under name, overwriting any existing entry — the
// follower's snapshot (re-)bootstrap path, where a wal_superseded restart
// swaps a fresh install over the stale one. Capacity applies only to new
// names.
func (r *registry) replace(name string, ds *dataset) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("invalid dataset name %q (want [a-zA-Z0-9._-], max 64 chars)", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.byName[name]; !exists && len(r.byName) >= r.max {
		return fmt.Errorf("registry full (%d datasets)", r.max)
	}
	r.byName[name] = ds
	return nil
}

// remove deletes a dataset from the registry (used to back out a
// registration whose durable snapshot failed to write).
func (r *registry) remove(name string) {
	r.mu.Lock()
	delete(r.byName, name)
	r.mu.Unlock()
}

// capacityLocked reports whether a registration of name could currently
// succeed; the caller holds r.mu.
func (r *registry) capacityLocked(name string) error {
	if _, exists := r.byName[name]; exists {
		return fmt.Errorf("dataset %q %w", name, ErrAlreadyRegistered)
	}
	if len(r.byName) >= r.max {
		return fmt.Errorf("registry full (%d datasets)", r.max)
	}
	return nil
}

// get looks a dataset up by name.
func (r *registry) get(name string) (*dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ds, ok := r.byName[name]
	return ds, ok
}

// namedDataset pairs a dataset with its registry name for listings.
type namedDataset struct {
	name string
	ds   *dataset
}

// list returns the registered datasets sorted by name.
func (r *registry) list() []namedDataset {
	r.mu.RLock()
	out := make([]namedDataset, 0, len(r.byName))
	for name, ds := range r.byName {
		out = append(out, namedDataset{name, ds})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

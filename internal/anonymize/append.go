package anonymize

import (
	"fmt"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// AppendResult reports what one Problem.Append changed.
type AppendResult struct {
	// Version is the dataset version after the append.
	Version int64
	// Start is the row index of the first appended row.
	Start int
	// Rows is the total row count after the append.
	Rows int
	// Appended is the number of rows the batch added.
	Appended int
	// NewCodes counts the dictionary codes each attribute gained, keyed by
	// attribute name; attributes absent saw no new values.
	NewCodes map[string]int
	// PatchedNodes counts warm cache entries refreshed in place by the
	// incremental bucketization update: one per cached complete level
	// vector, so a bucketization an Incognito subset node shares with a
	// full node is patched once.
	PatchedNodes int
	// InvalidatedNodes counts warm cache entries that had to be dropped
	// (rebuilt lazily on next use) instead of patched.
	InvalidatedNodes int
}

// Append streams rows into the problem: dictionaries and code columns grow
// in place, every cached bucketization is patched with just the appended
// rows (O(appended + buckets) per warm node instead of a full O(rows)
// re-encode and re-bucketize), and the problem's version is bumped. The
// swap is atomic — searches running on a Snapshot keep their pinned
// version; calls made after Append see the grown dataset. Appends are
// serialized with each other but never block snapshot readers.
//
// The batch is validated (schema and hierarchy coverage of every new
// value) before anything mutates, so a rejected
// batch leaves the problem exactly as it was. The disclosure-engine memo
// needs no maintenance: it is keyed by histogram content, not by dataset
// version.
func (p *Problem) Append(rows []table.Row) (AppendResult, error) {
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	old := p.cur.Load()
	if len(rows) == 0 {
		return AppendResult{Version: old.version, Start: old.tab.Len(), Rows: old.tab.Len()}, nil
	}
	// Schema validation runs first so malformed values are reported as
	// schema errors; Encoded.Append will re-validate (it is public API
	// with its own atomicity contract), which is accepted double work —
	// one linear pass over the batch, small next to the cache patching.
	if err := p.validateRows(rows); err != nil {
		return AppendResult{}, err
	}
	// Extend the compiled hierarchies over the batch's new values before
	// committing anything: a value the hierarchy cannot generalize must
	// reject the whole batch, not leave the dictionaries half-grown.
	// Schema validation already ran, so extension errors really mean "the
	// hierarchy does not cover this (schema-legal) value".
	newCompiled, err := p.extendCompiled(old, rows)
	if err != nil {
		return AppendResult{}, err
	}
	delta, err := p.master.Append(rows)
	if err != nil {
		return AppendResult{}, err
	}
	snap := p.master.Snapshot()

	// Patch the warm state: every cached bucketization absorbs just the
	// appended rows, once per level vector; entries a patch cannot serve
	// are dropped and rebuilt lazily. Patched entries keep their level
	// vectors, so the next cache miss still derives from the cheapest
	// compatible source.
	cache := newBucketizeCache()
	cache.carryCounters(old.cache)
	res := AppendResult{
		Version:  old.version + 1,
		Start:    delta.Start,
		Rows:     delta.Rows,
		Appended: len(rows),
		NewCodes: newCodeCounts(snap.Table.Schema, delta),
	}
	old.cache.each(func(key string, e *cacheEntry) {
		bz, err := bucket.AppendRows(e.bz, snap, newCompiled, p.levels(e.vec), delta.Start)
		if err != nil {
			res.InvalidatedNodes++
			return
		}
		cache.put(key, e.vec, bz)
		res.PatchedNodes++
	})
	p.cur.Store(&state{
		version:  res.Version,
		tab:      snap.Table,
		enc:      snap,
		compiled: newCompiled,
		cache:    cache,
	})
	return res, nil
}

// validateRows checks the whole batch against the schema before anything
// mutates, so a rejected batch reports the offending row and attribute
// and leaves the problem untouched.
func (p *Problem) validateRows(rows []table.Row) error {
	s := p.Table.Schema
	for i, r := range rows {
		if len(r) != len(s.Attrs) {
			return fmt.Errorf(
				"anonymize: append row %d has %d values, schema has %d attributes",
				i, len(r), len(s.Attrs))
		}
		for c, v := range r {
			if err := s.Attrs[c].Validate(v); err != nil {
				return fmt.Errorf("anonymize: append row %d: %w", i, err)
			}
		}
	}
	return nil
}

// extendCompiled builds the next version's compiled-hierarchy set: for
// every column whose hierarchy is compiled and whose batch introduces
// values the dictionary has not seen, the compiled LUTs are extended
// copy-on-write over the would-be grown domain. Any value a hierarchy
// cannot generalize fails the whole append before the master mutates.
func (p *Problem) extendCompiled(old *state, rows []table.Row) (hierarchy.CompiledSet, error) {
	s := p.master.Table.Schema
	out := make(hierarchy.CompiledSet, len(old.compiled))
	for name, c := range old.compiled {
		out[name] = c
	}
	for name, c := range old.compiled {
		col := s.Index(name)
		if col < 0 {
			continue
		}
		dict := p.master.Dicts[col]
		var grown []string
		seen := make(map[string]bool)
		for _, r := range rows {
			if col >= len(r) {
				continue // length errors surface in master.Append's validation
			}
			v := r[col]
			if _, ok := dict.Code(v); ok || seen[v] {
				continue
			}
			seen[v] = true
			grown = append(grown, v)
		}
		if len(grown) == 0 {
			continue
		}
		domain := append(append([]string(nil), dict.Values()...), grown...)
		ext, err := c.Extend(p.Hierarchies[name], domain)
		if err != nil {
			return nil, fmt.Errorf("anonymize: append: %w", err)
		}
		out[name] = ext
	}
	return out, nil
}

// newCodeCounts flattens an encoding delta into per-attribute new-value
// counts, dropping columns that gained nothing.
func newCodeCounts(s *table.Schema, delta table.AppendDelta) map[string]int {
	out := map[string]int{}
	for c := range s.Attrs {
		if n := delta.NewValueCount(c); n > 0 {
			out[s.Attrs[c].Name] = n
		}
	}
	return out
}

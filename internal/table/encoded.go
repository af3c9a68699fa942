package table

import (
	"fmt"
	"runtime"

	"ckprivacy/internal/parallel"
)

// This file implements the columnar, dictionary-encoded view of a table.
// The row-oriented Table remains the source of truth and the reference
// representation; Encoded is a derived view built once per loaded table.
// Everything downstream that scans tuples repeatedly (bucketization, the
// lattice searches, the serving daemon's per-dataset warm state) computes
// over the code columns instead of the row strings.
//
// Since the streaming-append substrate, an Encoded is an append-only
// *master* view: Append grows the dictionaries and code columns (and the
// underlying Table) in place, and Snapshot pins an immutable, fixed-length
// view that is safe to share across goroutines while the master keeps
// growing. Codes are never reassigned: appends only ever add rows and
// dictionary entries, so every snapshot's codes decode to the same strings
// forever.
//
// Invariants:
//   - Dicts[c].Value(Cols[c][i]) == Table.Rows[i][c] for every row i and
//     column c: decoding always reproduces the exact original strings.
//   - Codes are assigned in order of first appearance in each column's
//     row order, and appends scan their rows in order after all existing
//     rows — so the master's encoding is byte-identical to Encode on the
//     concatenated table.
//   - A Snapshot never changes: its row count, code columns and dictionary
//     lengths are pinned. Appends to the master write only beyond every
//     pinned length, so snapshot readers and a (serialized) appender never
//     touch the same memory.
//   - Append itself must be serialized by the caller (anonymize.Problem
//     holds a lock around it); concurrent readers use snapshots.

// Dict is a bidirectional dictionary between one column's value strings
// and dense uint32 codes (0..Len()-1).
type Dict struct {
	values []string
	index  map[string]uint32
}

// newDict builds an empty dictionary with capacity for n distinct values.
func newDict(n int) *Dict {
	return &Dict{index: make(map[string]uint32, n)}
}

// intern returns the code for v, assigning the next free code on first
// sight.
func (d *Dict) intern(v string) uint32 {
	if c, ok := d.index[v]; ok {
		return c
	}
	c := uint32(len(d.values))
	d.values = append(d.values, v)
	d.index[v] = c
	return c
}

// NewDict returns an empty dictionary, for callers that code a value list
// of their own (a bucketization built from value lists keeps one). Codes
// follow first sight, as in an encoding; Intern must not race with reads.
func NewDict() *Dict { return newDict(0) }

// Intern returns v's code, assigning the next free code on first sight.
func (d *Dict) Intern(v string) uint32 { return d.intern(v) }

// view pins the dictionary's first n codes as an immutable snapshot. The
// view drops the lookup index rather than sharing it: the master's index
// map keeps growing under Append, and a shared map would race with
// snapshot readers. Snapshot Code calls fall back to a linear scan, which
// nothing on the bucketization fast path performs.
func (d *Dict) view(n int) *Dict {
	return &Dict{values: d.values[:n:n]}
}

// Code returns the code of v and whether v occurs in the column.
func (d *Dict) Code(v string) (uint32, bool) {
	if d.index != nil {
		c, ok := d.index[v]
		return c, ok
	}
	for i, s := range d.values {
		if s == v {
			return uint32(i), true
		}
	}
	return 0, false
}

// Value decodes a code back to its string. It panics on out-of-range
// codes, mirroring slice indexing.
func (d *Dict) Value(c uint32) string { return d.values[c] }

// Values returns the dictionary's strings in code order. The returned
// slice is the dictionary's backing storage and must not be modified.
func (d *Dict) Values() []string { return d.values }

// Len returns the number of distinct values (the column's cardinality).
func (d *Dict) Len() int { return len(d.values) }

// Encoded is the columnar, dictionary-encoded view of a Table: one Dict
// and one dense code slice per column, in schema order. The sensitive
// column is encoded over its own code space like any other column; its
// dictionary doubles as the sensitive-value code space for per-bucket
// histograms.
type Encoded struct {
	// Table is the row-oriented source the view was built from. The master
	// view shares it with the caller: Append grows both together.
	Table *Table
	// Dicts holds one dictionary per column, in schema order.
	Dicts []*Dict
	// Cols holds one dense code column per attribute: Cols[c][i] is the
	// code of row i's value in column c.
	Cols [][]uint32
}

// parallelRows is the table size from which Encode and
// NewEncodedFromParts spread their work over every core; below it,
// starting goroutines costs more than it saves.
const parallelRows = 8192

// workersFor returns the worker budget for building a view of the given
// number of rows: runtime.GOMAXPROCS(0) from parallelRows on, 1 below.
func workersFor(rows int) int {
	if rows < parallelRows {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// Encode builds the columnar view, one pass over the rows per column.
// A column's codes depend only on that column's values in row order, so
// the columns intern independently, each on its own worker; the result is
// the same at every worker count.
func (t *Table) Encode() *Encoded {
	nCols := len(t.Schema.Attrs)
	e := &Encoded{
		Table: t,
		Dicts: make([]*Dict, nCols),
		Cols:  make([][]uint32, nCols),
	}
	// The callback never fails, so ForEach returns nil.
	_ = parallel.ForEach(workersFor(len(t.Rows)), nCols, func(c int) error {
		d := newDict(16)
		col := make([]uint32, len(t.Rows))
		for i, r := range t.Rows {
			col[i] = d.intern(r[c])
		}
		e.Dicts[c], e.Cols[c] = d, col
		return nil
	})
	return e
}

// NewEncodedFromParts rebuilds a master Encoded view from its raw
// columnar parts — per-column dictionary strings (in code order) and
// dense code columns — as recovered from a durable snapshot. It is the
// warm-boot inverse of Encode: instead of interning every row value, it
// validates each dictionary once (O(distinct values), not O(rows)),
// rebuilds the lookup indexes, and decodes the row-oriented Table by
// sharing the dictionary strings. The result upholds every master-view
// invariant, so Append and Snapshot work on it exactly as on an encoding
// built from rows.
func NewEncodedFromParts(s *Schema, dicts [][]string, cols [][]uint32) (*Encoded, error) {
	if len(dicts) != len(s.Attrs) || len(cols) != len(s.Attrs) {
		return nil, fmt.Errorf("table: schema has %d attributes, parts have %d dicts and %d columns",
			len(s.Attrs), len(dicts), len(cols))
	}
	rows := 0
	if len(cols) > 0 {
		rows = len(cols[0])
	}
	e := &Encoded{
		Table: &Table{Schema: s, Rows: make([]Row, rows)},
		Dicts: make([]*Dict, len(dicts)),
		Cols:  cols,
	}
	for c, values := range dicts {
		if len(cols[c]) != rows {
			return nil, fmt.Errorf("table: column %d has %d rows, column 0 has %d", c, len(cols[c]), rows)
		}
		d := &Dict{values: values, index: make(map[string]uint32, len(values))}
		for code, v := range values {
			if err := s.Attrs[c].Validate(v); err != nil {
				return nil, fmt.Errorf("table: column %q dictionary: %w", s.Attrs[c].Name, err)
			}
			if _, dup := d.index[v]; dup {
				return nil, fmt.Errorf("table: column %q dictionary repeats %q", s.Attrs[c].Name, v)
			}
			d.index[v] = uint32(code)
		}
		e.Dicts[c] = d
	}
	// Validate every code against its dictionary in one tight pass per
	// column, so the fill below can index without bounds branches.
	for c, col := range cols {
		limit := uint32(len(dicts[c]))
		for i, code := range col {
			if code >= limit {
				return nil, fmt.Errorf("table: column %d row %d: code %d outside dictionary of %d",
					c, i, code, limit)
			}
		}
	}
	// One flat backing array for every row — one allocation instead of one
	// per row — filled in one contiguous chunk of rows per worker:
	// warm-boot recovery calls this on its critical path, and
	// materializing ~rows×ncols string headers is the single largest cost
	// of a restart.
	ncols := len(cols)
	backing := make([]string, rows*ncols)
	workers := workersFor(rows)
	// The callback never fails, so ForEach returns nil.
	_ = parallel.ForEach(workers, workers, func(j int) error {
		for i := j * rows / workers; i < (j+1)*rows/workers; i++ {
			r := backing[i*ncols : (i+1)*ncols : (i+1)*ncols]
			for c := 0; c < ncols; c++ {
				r[c] = dicts[c][cols[c][i]]
			}
			e.Table.Rows[i] = Row(r)
		}
		return nil
	})
	return e, nil
}

// AppendDelta reports what one Append changed: where the new rows start
// and which dictionary codes each column gained. Callers use it to decide
// what derived state (compiled hierarchies, cached bucketizations) needs
// extending.
type AppendDelta struct {
	// Start is the row index of the first appended row.
	Start int
	// Rows is the total row count after the append.
	Rows int
	// NewCodes[c] lists the dictionary codes column c gained, in assignment
	// order; nil when the column saw no new values.
	NewCodes [][]uint32
}

// NewValueCount returns how many new dictionary values the append
// introduced in column c.
func (d *AppendDelta) NewValueCount(c int) int { return len(d.NewCodes[c]) }

// Append validates rows against the schema and appends them to both the
// underlying Table and the encoded columns, growing the per-column
// dictionaries as new values appear. Validation runs before any mutation,
// so a rejected batch leaves the view untouched. The returned delta names
// every dictionary code the batch introduced.
//
// Append writes only beyond previously pinned lengths, so existing
// Snapshots remain valid; it must not race with other Appends or with
// readers of this master view (take a Snapshot for those).
func (e *Encoded) Append(rows []Row) (AppendDelta, error) {
	s := e.Table.Schema
	for i, r := range rows {
		if len(r) != len(s.Attrs) {
			return AppendDelta{}, fmt.Errorf(
				"table: append row %d has %d values, schema has %d attributes", i, len(r), len(s.Attrs))
		}
		for c, v := range r {
			if err := s.Attrs[c].Validate(v); err != nil {
				return AppendDelta{}, fmt.Errorf("table: append row %d: %w", i, err)
			}
		}
	}
	delta := AppendDelta{
		Start:    len(e.Table.Rows),
		NewCodes: make([][]uint32, len(s.Attrs)),
	}
	for _, r := range rows {
		e.Table.Rows = append(e.Table.Rows, r)
		for c, v := range r {
			before := e.Dicts[c].Len()
			code := e.Dicts[c].intern(v)
			if e.Dicts[c].Len() > before {
				delta.NewCodes[c] = append(delta.NewCodes[c], code)
			}
			e.Cols[c] = append(e.Cols[c], code)
		}
	}
	delta.Rows = len(e.Table.Rows)
	return delta, nil
}

// Snapshot pins the view's current contents as an immutable, fixed-length
// Encoded that later Appends to this master cannot disturb: the row count,
// every code column and every dictionary are capped at their current
// lengths (three-index slices, so even an append that fits spare capacity
// cannot write into a snapshot's range), and the snapshot's Table is a
// same-schema view of the current row prefix. Snapshots are safe to share
// across goroutines while the master keeps appending.
func (e *Encoded) Snapshot() *Encoded {
	n := e.Rows()
	snap := &Encoded{
		Table: &Table{Schema: e.Table.Schema, Rows: e.Table.Rows[:n:n]},
		Dicts: make([]*Dict, len(e.Dicts)),
		Cols:  make([][]uint32, len(e.Cols)),
	}
	for c := range e.Cols {
		snap.Dicts[c] = e.Dicts[c].view(len(e.Dicts[c].values))
		snap.Cols[c] = e.Cols[c][:n:n]
	}
	return snap
}

// Rows returns the number of encoded rows.
func (e *Encoded) Rows() int {
	if len(e.Cols) == 0 {
		return 0
	}
	return len(e.Cols[0])
}

// SensitiveDict returns the sensitive column's dictionary — the code
// space per-bucket sensitive histograms are counted over.
func (e *Encoded) SensitiveDict() *Dict { return e.Dicts[e.Table.Schema.SensitiveIndex] }

// SensitiveCol returns the sensitive column's code slice.
func (e *Encoded) SensitiveCol() []uint32 { return e.Cols[e.Table.Schema.SensitiveIndex] }

// Cardinalities returns the per-attribute dictionary sizes keyed by
// attribute name (the serving layer reports these on /v1/datasets).
func (e *Encoded) Cardinalities() map[string]int {
	out := make(map[string]int, len(e.Dicts))
	for c, d := range e.Dicts {
		out[e.Table.Schema.Attrs[c].Name] = d.Len()
	}
	return out
}

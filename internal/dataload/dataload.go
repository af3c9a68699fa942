// Package dataload provides named, ready-to-analyze dataset bundles: a
// table together with the generalization hierarchies, quasi-identifier
// order and default levels that make it analyzable. The CLI
// (cmd/ckprivacy), the serving daemon (cmd/ckprivacyd) and the dataset
// registry in internal/server all load data through this package, so a
// dataset means the same thing everywhere. A Bundle carries rows and
// metadata only: bucketizing and disclosure go through an
// anonymize.Problem built over it, which owns the encoded view, the
// compiled hierarchies and every warm cache.
package dataload

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/dataset/adult"
	"ckprivacy/internal/experiments"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// ErrNoDataRows marks a CSV that parsed a header but contained no data
// rows: a bundle over an empty table has nothing to bucketize, so the
// load is rejected eagerly instead of failing later at NewProblem.
// Callers match it with errors.Is. (A file with no header at all is
// table.ErrEmptyCSV.)
var ErrNoDataRows = errors.New("csv has a header but no data rows")

// Bundle is a dataset plus everything needed to bucketize and search it.
type Bundle struct {
	// Name identifies the bundle ("adult", "hospital", or a registered
	// dataset's name).
	Name string
	// Table is the underlying relation.
	Table *table.Table
	// Hierarchies generalize the quasi-identifiers.
	Hierarchies hierarchy.Set
	// QI lists the quasi-identifier names in lattice-dimension order.
	QI []string
	// DefaultLevels is a sensible default generalization for one-shot
	// disclosure queries (the CLI's -levels default).
	DefaultLevels bucket.Levels
	// PersonName maps a row id to a display name; nil falls back to the
	// row index.
	PersonName func(int) string
	// Source describes how to rebuild the bundle's non-row state (schema,
	// hierarchies, QI order) without the original CSV — what the durable
	// store persists next to the columnar rows. Bundles constructed by
	// hand may leave it nil; they then register unpersisted.
	Source *SourceSpec
}

// Namer returns a non-nil row-id-to-name function.
func (b *Bundle) Namer() func(int) string {
	if b.PersonName != nil {
		return b.PersonName
	}
	return func(id int) string { return strconv.Itoa(id) }
}

// Adult loads an Adult-schema bundle: from the CSV file at path when path
// is non-empty, otherwise the deterministic synthetic table (n tuples,
// given seed). The canonical synthetic configuration — the paper's 45,222
// tuples at the default seed 1 — is generated once per process and
// shared: repeated CLI subcommands, tests and daemon preloads get a fresh
// Bundle over the same immutable rows instead of regenerating 45k rows per
// call.
func Adult(path string, n int, seed int64) (*Bundle, error) {
	if path == "" {
		if n <= 0 {
			n = adult.DefaultN
		}
		if n == adult.DefaultN && seed == 1 {
			return cachedDefaultAdult()
		}
		tab, err := adult.Generate(adult.Config{N: n, Seed: seed})
		if err != nil {
			return nil, err
		}
		return adultBundle(tab), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return AdultFromReader(f)
}

// AdultFromReader reads an Adult-schema CSV (with header) into a bundle.
// Empty input, a header-only file, ragged rows and values outside the
// schema domains are all named errors, never silent skips.
func AdultFromReader(r io.Reader) (*Bundle, error) {
	tab, err := table.ReadCSV(r, adult.Schema())
	if err != nil {
		return nil, err
	}
	if tab.Len() == 0 {
		return nil, fmt.Errorf("dataload: adult: %w", ErrNoDataRows)
	}
	return adultBundle(tab), nil
}

func adultBundle(tab *table.Table) *Bundle {
	return &Bundle{
		Name:        "adult",
		Table:       tab,
		Hierarchies: adult.Hierarchies(),
		QI:          adult.QuasiIdentifiers(),
		// The paper's Figure 2-style working generalization.
		DefaultLevels: bucket.Levels{"Age": 3, "MaritalStatus": 2, "Race": 1, "Sex": 1},
		Source:        &SourceSpec{Kind: SourceKindAdult},
	}
}

// adultSchema returns the Adult template schema (the decode target for
// persisted Adult-source snapshots).
func adultSchema() *table.Schema { return adult.Schema() }

// The default Adult bundle cache: the 45,222-tuple seed-1 synthetic
// table, generated once per process.
var (
	adultDefaultOnce sync.Once
	adultDefaultErr  error
	adultDefaultTab  *table.Table // pinned rows (len == cap)
)

// cachedDefaultAdult hands out a fresh Bundle over the cached default
// Adult rows. Each call gets its own Table struct (append paths reassign
// the Rows header, so a shared struct would race) over the same pinned
// backing rows — len == cap, so any append reallocates away from the
// cache.
func cachedDefaultAdult() (*Bundle, error) {
	adultDefaultOnce.Do(func() {
		tab, err := adult.Generate(adult.Config{N: adult.DefaultN, Seed: 1})
		if err != nil {
			adultDefaultErr = err
			return
		}
		tab.Rows = tab.Rows[:len(tab.Rows):len(tab.Rows)]
		adultDefaultTab = tab
	})
	if adultDefaultErr != nil {
		return nil, adultDefaultErr
	}
	return adultBundle(&table.Table{Schema: adultDefaultTab.Schema, Rows: adultDefaultTab.Rows}), nil
}

// Hospital returns the paper's ten-patient running example as a bundle;
// its default levels are the Figure 2/3 partition. Rows appended beyond
// the paper's ten patients fall back to their row index as the person
// name (the example only names the original cast).
func Hospital() *Bundle {
	h := experiments.HospitalExample()
	return hospitalBundle(h, h.Table)
}

// hospitalBundle assembles the hospital bundle over an explicit table —
// the example's own rows normally, or rows decoded from a durable
// snapshot on recovery.
func hospitalBundle(h *experiments.Hospital, tab *table.Table) *Bundle {
	return &Bundle{
		Name:        "hospital",
		Table:       tab,
		Hierarchies: h.Hierarchies,
		QI:          []string{"Zip", "Age", "Sex"},
		DefaultLevels: bucket.Levels{
			"Zip": 1, "Age": 1,
		},
		PersonName: func(id int) string {
			if id < len(h.Names) {
				return h.Names[id]
			}
			return strconv.Itoa(id)
		},
		Source: &SourceSpec{Kind: SourceKindHospital},
	}
}

// Builtin resolves a built-in bundle by name: "hospital", or "adult" (the
// synthetic table with the given size and seed; n <= 0 means the paper's
// 45,222).
func Builtin(name string, n int, seed int64) (*Bundle, error) {
	switch strings.ToLower(name) {
	case "hospital":
		return Hospital(), nil
	case "adult":
		if n <= 0 {
			n = adult.DefaultN
		}
		return Adult("", n, seed)
	default:
		return nil, fmt.Errorf("dataload: unknown built-in dataset %q (have adult, hospital)", name)
	}
}

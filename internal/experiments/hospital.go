package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
	"ckprivacy/internal/worlds"
)

// Hospital is the paper's running example: the Figure 1 table of ten
// patients, the hierarchies producing the Figure 2/3 partition, and the
// person names used in the worked probability computations.
type Hospital struct {
	Table       *table.Table
	Names       []string
	Hierarchies hierarchy.Set
}

// HospitalExample constructs the Figure 1 data.
func HospitalExample() *Hospital {
	s, err := table.NewSchema([]table.Attribute{
		{Name: "Zip", Kind: table.Numeric, Min: 0, Max: 99999},
		{Name: "Age", Kind: table.Numeric, Min: 0, Max: 120},
		{Name: "Sex", Kind: table.Categorical, Domain: []string{"M", "F"}},
		{Name: "Disease", Kind: table.Categorical, Domain: []string{
			"flu", "lung-cancer", "mumps", "breast-cancer", "ovarian-cancer", "heart-disease",
		}},
	}, "Disease")
	if err != nil {
		panic(err) // static fixture
	}
	t := table.New(s)
	rows := []struct {
		name string
		row  table.Row
	}{
		{"Bob", table.Row{"14850", "23", "M", "flu"}},
		{"Charlie", table.Row{"14850", "24", "M", "flu"}},
		{"Dave", table.Row{"14850", "25", "M", "lung-cancer"}},
		{"Ed", table.Row{"14850", "27", "M", "lung-cancer"}},
		{"Frank", table.Row{"14853", "29", "M", "mumps"}},
		{"Gloria", table.Row{"14850", "21", "F", "flu"}},
		{"Hannah", table.Row{"14850", "22", "F", "flu"}},
		{"Irma", table.Row{"14853", "24", "F", "breast-cancer"}},
		{"Jessica", table.Row{"14853", "26", "F", "ovarian-cancer"}},
		{"Karen", table.Row{"14853", "28", "F", "heart-disease"}},
	}
	names := make([]string, 0, len(rows))
	for _, r := range rows {
		t.MustAppend(r.row)
		names = append(names, r.name)
	}
	return &Hospital{
		Table: t,
		Names: names,
		Hierarchies: hierarchy.Set{
			"Zip": hierarchy.MustInterval("Zip", []int{1, 10, 0}),
			"Age": hierarchy.MustInterval("Age", []int{1, 10, 0}),
			"Sex": hierarchy.NewSuppression("Sex", []string{"M", "F"}),
		},
	}
}

// Name maps a tuple id to the paper's person name.
func (h *Hospital) Name(id int) string { return h.Names[id] }

// Bucketize produces the Figure 2/3 partition: Zip and Age generalized one
// level, Sex kept.
func (h *Hospital) Bucketize() (*bucket.Bucketization, error) {
	return bucket.Bucketize(h.Table, h.Hierarchies, bucket.Levels{"Zip": 1, "Age": 1})
}

// Instance converts the Figure 2/3 bucketization into a random-worlds
// instance with the paper's person names, for exact probability queries.
func (h *Hospital) Instance() (worlds.Instance, error) {
	bz, err := h.Bucketize()
	if err != nil {
		return worlds.Instance{}, err
	}
	return worlds.FromBucketization(bz, h.Name)
}

// RenderFigure1 writes the original table.
func (h *Hospital) RenderFigure1(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure 1: original table\n%-8s %-6s %-4s %-4s %s\n",
		"Name", "Zip", "Age", "Sex", "Disease"); err != nil {
		return err
	}
	for i, row := range h.Table.Rows {
		if _, err := fmt.Fprintf(w, "%-8s %-6s %-4s %-4s %s\n",
			h.Names[i], row[0], row[1], row[2], row[3]); err != nil {
			return err
		}
	}
	return nil
}

// RenderFigure3 writes the published bucketization: non-sensitive values in
// the clear, names masked, sensitive values permuted within buckets using
// the given seed.
func (h *Hospital) RenderFigure3(w io.Writer, seed int64) error {
	bz, err := h.Bucketize()
	if err != nil {
		return err
	}
	rows, err := bz.Publish(rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Figure 3: bucketized table (sensitive values permuted per bucket)\n%-16s %-6s %-4s %-4s %s\n",
		"Bucket", "Zip", "Age", "Sex", "Disease"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-16s %-6s %-4s %-4s %s\n", r[0], r[1], r[2], r[3], r[4]); err != nil {
			return err
		}
	}
	return nil
}

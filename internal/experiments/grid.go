package experiments

import (
	"fmt"
	"io"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/dataset/adult"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/parallel"
	"ckprivacy/internal/table"
)

// This file adds the sweep the paper's §3.4 discussion implies but never
// plots: how the cheapest safe generalization moves across a whole grid of
// (c, k) policy choices. Every cell is an independent chain search, so the
// grid parallelizes embarrassingly — it is the experiment-level counterpart
// of the level-wise parallel lattice searches.

// GridConfig parameterizes a (c,k)-safety policy sweep.
type GridConfig struct {
	// Cs are the disclosure thresholds (rows); nil means 0.5..0.9 in steps
	// of 0.1.
	Cs []float64
	// Ks are the knowledge bounds (columns); nil means DefaultFig6Ks.
	Ks []int
	// Workers bounds the goroutines sweeping grid cells; values below 1
	// mean one worker per CPU core. Cells are independent chain searches
	// sharing one disclosure engine and bucketization cache, so the result
	// is identical at every worker count.
	Workers int
	// Hierarchies and QI override the lattice the sweep runs on; nil
	// means the Adult hierarchies over the Adult quasi-identifiers.
	Hierarchies hierarchy.Set
	QI          []string
}

// GridCell is the outcome of one (c,k) policy: the lowest safe node on the
// canonical chain, or Exists=false when even full suppression discloses too
// much.
type GridCell struct {
	C float64
	K int
	// Node is the lowest (c,k)-safe node on the canonical chain.
	Node lattice.Node
	// Exists is false when no chain node is safe.
	Exists bool
	// Height is Node's lattice height (0..MaxHeight); -1 when !Exists.
	Height int
	// Buckets counts the safe bucketization's buckets; 0 when !Exists.
	Buckets int
	// Evaluated counts predicate evaluations the cell's search performed.
	Evaluated int
}

// GridResult holds the full sweep; Cells[i][j] corresponds to (Cs[i], Ks[j]).
type GridResult struct {
	Cs    []float64
	Ks    []int
	Cells [][]GridCell
}

// DefaultGridCs are the disclosure thresholds swept by default.
var DefaultGridCs = []float64{0.5, 0.6, 0.7, 0.8, 0.9}

// RunSafetyGrid sweeps (c,k)-safety over the grid on the Adult
// quasi-identifier lattice, one chain search per cell (Theorem 14 justifies
// the chain's monotonicity). All cells share the problem's memoizing
// disclosure engine and bucketization cache, so each chain node a probe
// touches is bucketized once for the whole grid and each distinct
// histogram's DP row is computed once. Building the problem and
// bucketizing the probed chain nodes, not the DP, is most of the cost.
func RunSafetyGrid(tab *table.Table, cfg GridConfig) (*GridResult, error) {
	cs := cfg.Cs
	if len(cs) == 0 {
		cs = DefaultGridCs
	}
	ks := cfg.Ks
	if len(ks) == 0 {
		ks = DefaultFig6Ks
	}
	for _, c := range cs {
		if !(c >= 0 && c <= 1) { // NaN fails too
			return nil, fmt.Errorf("experiments: grid threshold c = %v outside [0, 1]", c)
		}
	}
	for _, k := range ks {
		if k < 0 {
			return nil, fmt.Errorf("experiments: negative k %d", k)
		}
	}
	hs := cfg.Hierarchies
	if hs == nil {
		hs = adult.Hierarchies()
	}
	qi := cfg.QI
	if len(qi) == 0 {
		qi = adult.QuasiIdentifiers()
	}
	// The problem keeps the default serial budget: the cells below already
	// fill the workers, and a multi-section chain search per cell would
	// change the cells' Evaluated counts.
	p, err := anonymize.NewProblem(tab, hs, qi)
	if err != nil {
		return nil, fmt.Errorf("experiments: grid: %w", err)
	}
	// The cells' binary searches probe only O(cells + log chain) distinct
	// chain nodes between them, so the planner is handed each probe round
	// lazily through ChainSearch's batch path rather than pre-materializing
	// the whole chain — the low chain nodes are the expensive ones and the
	// searches rarely touch them.
	snap := p.Snapshot()
	res := &GridResult{
		Cs:    append([]float64(nil), cs...),
		Ks:    append([]int(nil), ks...),
		Cells: make([][]GridCell, len(cs)),
	}
	for i := range res.Cells {
		res.Cells[i] = make([]GridCell, len(ks))
	}
	err = parallel.ForEach(cfg.Workers, len(cs)*len(ks), func(idx int) error {
		i, j := idx/len(ks), idx%len(ks)
		node, ok, stats, err := snap.ChainSearch(p.CKSafety(cs[i], ks[j]))
		if err != nil {
			return fmt.Errorf("experiments: grid at (c=%v, k=%d): %w", cs[i], ks[j], err)
		}
		cell := GridCell{C: cs[i], K: ks[j], Exists: ok, Height: -1, Evaluated: stats.Evaluated}
		if ok {
			bz, err := snap.Bucketize(node)
			if err != nil {
				return fmt.Errorf("experiments: grid at (c=%v, k=%d): %w", cs[i], ks[j], err)
			}
			cell.Node = node
			cell.Height = node.Height()
			cell.Buckets = len(bz.Buckets)
		}
		res.Cells[i][j] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render writes the grid as a table of safe-node heights ("-" marks
// policies no generalization satisfies).
func (r *GridResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "(c,k)-safety grid: height of lowest safe chain node\n\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%6s", "c\\k"); err != nil {
		return err
	}
	for _, k := range r.Ks {
		if _, err := fmt.Fprintf(w, "  %6s", fmt.Sprintf("k=%d", k)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i, c := range r.Cs {
		if _, err := fmt.Fprintf(w, "%6.2f", c); err != nil {
			return err
		}
		for j := range r.Ks {
			cell := r.Cells[i][j]
			s := "-"
			if cell.Exists {
				s = fmt.Sprintf("%d", cell.Height)
			}
			if _, err := fmt.Fprintf(w, "  %6s", s); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits one row per cell: c, k, exists, height, buckets, node.
func (r *GridResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "c,k,exists,height,buckets,node"); err != nil {
		return err
	}
	for i := range r.Cs {
		for j := range r.Ks {
			cell := r.Cells[i][j]
			node := ""
			if cell.Exists {
				node = cell.Node.Key()
			}
			if _, err := fmt.Fprintf(w, "%g,%d,%t,%d,%d,%q\n",
				cell.C, cell.K, cell.Exists, cell.Height, cell.Buckets, node); err != nil {
				return err
			}
		}
	}
	return nil
}

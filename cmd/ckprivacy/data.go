package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"ckprivacy"
	"ckprivacy/internal/dataload"
)

// dataFlags are the input-selection flags shared by several commands: pick
// a named dataset bundle (internal/dataload) — the Adult table from a CSV
// or the synthetic generator, or the paper's hospital running example.
type dataFlags struct {
	data string
	csv  string
	n    int
	seed int64
}

func (d *dataFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&d.data, "data", "adult", "dataset: adult | hospital")
	fs.StringVar(&d.csv, "csv", "", "Adult-schema CSV file to load (default: generate synthetic data)")
	fs.IntVar(&d.n, "n", ckprivacy.AdultDefaultN, "synthetic tuple count")
	fs.Int64Var(&d.seed, "seed", 1, "synthetic generator seed")
}

// load resolves the flags to a dataset bundle (table + hierarchies + QI +
// default levels).
func (d *dataFlags) load() (*dataload.Bundle, error) {
	switch d.data {
	case "adult":
		return dataload.Adult(d.csv, d.n, d.seed)
	case "hospital":
		// The hospital example is a fixed ten-patient table; silently
		// ignoring size/seed/CSV overrides would mislead.
		if d.csv != "" || d.n != ckprivacy.AdultDefaultN || d.seed != 1 {
			return nil, fmt.Errorf("-csv, -n and -seed only apply to -data adult")
		}
		return dataload.Hospital(), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want adult or hospital)", d.data)
	}
}

// bucketize materializes the bundle at the given levels (empty means the
// bundle's defaults) through a Problem — the path a daemon request takes.
// Callers compute disclosure on the returned problem's engine.
func bucketize(b *dataload.Bundle, levels ckprivacy.Levels) (*ckprivacy.Problem, *ckprivacy.Bucketization, error) {
	if len(levels) == 0 {
		levels = b.DefaultLevels
	}
	p, err := ckprivacy.NewProblem(b.Table, b.Hierarchies, b.QI)
	if err != nil {
		return nil, nil, err
	}
	node, err := p.NodeForLevels(levels)
	if err != nil {
		return nil, nil, err
	}
	bz, err := p.Bucketize(node)
	if err != nil {
		return nil, nil, err
	}
	return p, bz, nil
}

// loadAdultTable is for the Figure 5/6 commands, which reproduce
// Adult-specific experiments.
func (d *dataFlags) loadAdultTable() (*ckprivacy.Table, error) {
	if d.data != "adult" {
		return nil, fmt.Errorf("this command reproduces an Adult experiment; -data %s is not supported", d.data)
	}
	b, err := d.load()
	if err != nil {
		return nil, err
	}
	return b.Table, nil
}

// workersFlag registers the shared -workers flag: 1 (the default) is fully
// serial, 0 or negative uses one worker per CPU core. On fig6 it bounds
// both the materialization of the lattice's bucketizations and the
// per-node disclosure DP. All parallel paths produce results identical to
// serial, with two caveats: estimate's Monte-Carlo stream is reproducible
// per (seed, workers) pair but differs across worker counts, and chain
// search's reported check count varies with the budget (multi-section
// probing finds the same node).
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 1, "worker goroutines (<= 0 means one per CPU core)")
}

// parseLevels parses "Age=3,MaritalStatus=2,Race=1,Sex=1" into Levels.
func parseLevels(s string) (ckprivacy.Levels, error) {
	levels := ckprivacy.Levels{}
	if strings.TrimSpace(s) == "" {
		return levels, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad level %q (want Attr=level)", part)
		}
		lvl, err := strconv.Atoi(strings.TrimSpace(kv[1]))
		if err != nil {
			return nil, fmt.Errorf("bad level %q: %v", part, err)
		}
		levels[strings.TrimSpace(kv[0])] = lvl
	}
	return levels, nil
}

// parseCs parses "0.5,0.7" into a slice of thresholds.
func parseCs(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad c %q: %v", part, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// parseKs parses "1,3,5" into a slice of ints.
func parseKs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad k %q: %v", part, err)
		}
		out = append(out, k)
	}
	return out, nil
}

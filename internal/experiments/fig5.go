// Package experiments regenerates every table and figure in the paper's
// evaluation (§4), plus the worked examples of the introduction, as
// reproducible computations over the synthetic Adult substrate. See
// docs/PAPER-MAP.md for each figure's code and tests, and its "Deviations
// from the paper" section for why the numbers are the synthetic table's.
package experiments

import (
	"fmt"
	"io"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataset/adult"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/parallel"
	"ckprivacy/internal/table"
)

// Fig5Levels is the generalization the paper uses for Figure 5: "all the
// attributes other than Age were suppressed and the Age attribute was
// generalized to intervals of size 20" (Age level 3 of the 1/5/10/20/40/*
// hierarchy).
func Fig5Levels() bucket.Levels {
	return bucket.Levels{
		adult.AttrAge:     3,
		adult.AttrMarital: 2,
		adult.AttrRace:    1,
		adult.AttrSex:     1,
	}
}

// Fig5Result holds both curves of Figure 5: maximum disclosure as a
// function of the number k of pieces of background knowledge, for basic
// implications (solid line) and negated atoms (dotted line).
type Fig5Result struct {
	Ks          []int
	Implication []float64
	Negation    []float64
	// Buckets is the number of buckets the Figure 5 generalization induces.
	Buckets int
	// MinEntropy is the bucketization's minimum bucket entropy (nats).
	MinEntropy float64
}

// Fig5Config parameterizes RunFig5Config.
type Fig5Config struct {
	// MaxK is the largest knowledge bound; 0 means the paper's 12.
	MaxK int
	// Workers bounds the goroutines computing the figure's two disclosure
	// curves; values below 1 mean one worker per CPU core. The implication
	// and negation series are independent and run concurrently when the
	// budget allows; the result is identical at every worker count.
	Workers int
}

// RunFig5 computes Figure 5 for the given Adult-schema table. maxK defaults
// to 12, matching the paper (with 14 occupation values, disclosure
// certainly reaches 1 at k = 13).
func RunFig5(tab *table.Table, maxK int) (*Fig5Result, error) {
	return RunFig5Config(tab, Fig5Config{MaxK: maxK})
}

// RunFig5Config is RunFig5 with the full configuration.
func RunFig5Config(tab *table.Table, cfg Fig5Config) (*Fig5Result, error) {
	maxK := cfg.MaxK
	if maxK == 0 {
		maxK = 12
	}
	if maxK < 0 {
		return nil, fmt.Errorf("experiments: negative maxK")
	}
	// Materialize the figure's generalization through the problem (a cold
	// read is a one-node plan: encode once, base-scan at the DAG root), so
	// fig5 exercises the same machinery the full-lattice sweeps run on.
	// The figure reads the two series, the bucket count and the minimum
	// entropy, all made of histograms, so the node is read in the
	// histogram form: its scan writes no row ids.
	p, err := anonymize.NewProblem(tab, adult.Hierarchies(), adult.QuasiIdentifiers())
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5: %w", err)
	}
	node, err := p.NodeForLevels(Fig5Levels())
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5: %w", err)
	}
	bzs, err := p.Snapshot().BucketizeHistograms([]lattice.Node{node})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5 bucketize: %w", err)
	}
	bz := bzs[0]
	var impl, neg []float64
	tasks := []func() error{
		func() error {
			var err error
			if impl, err = p.Engine().Series(bz, maxK); err != nil {
				return fmt.Errorf("experiments: fig5 implications: %w", err)
			}
			return nil
		},
		func() error {
			var err error
			if neg, err = core.NegationSeries(bz, maxK); err != nil {
				return fmt.Errorf("experiments: fig5 negations: %w", err)
			}
			return nil
		},
	}
	if err := parallel.ForEach(cfg.Workers, len(tasks), func(i int) error { return tasks[i]() }); err != nil {
		return nil, err
	}
	res := &Fig5Result{
		Buckets:    len(bz.Buckets),
		MinEntropy: bz.MinEntropy(),
	}
	for k := 0; k <= maxK; k++ {
		res.Ks = append(res.Ks, k)
	}
	res.Implication = impl
	res.Negation = neg
	return res, nil
}

// Render writes the figure as an aligned text table (the rows behind the
// paper's plot).
func (r *Fig5Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure 5: max disclosure vs pieces of background knowledge\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "(%d buckets, min bucket entropy %.3f nats)\n\n", r.Buckets, r.MinEntropy); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%4s  %12s  %12s\n", "k", "implication", "negation"); err != nil {
		return err
	}
	for i, k := range r.Ks {
		if _, err := fmt.Fprintf(w, "%4d  %12.4f  %12.4f\n", k, r.Implication[i], r.Negation[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the figure's data as CSV (k,implication,negation).
func (r *Fig5Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "k,implication,negation"); err != nil {
		return err
	}
	for i, k := range r.Ks {
		if _, err := fmt.Fprintf(w, "%d,%g,%g\n", k, r.Implication[i], r.Negation[i]); err != nil {
			return err
		}
	}
	return nil
}

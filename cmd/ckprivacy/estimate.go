package main

import (
	"flag"
	"fmt"

	"ckprivacy"
)

// cmdEstimate evaluates one specific knowledge formula against a published
// generalization by Monte-Carlo sampling (exact evaluation is #P-complete,
// Theorem 8). Persons are addressed by their row index in the input table.
func cmdEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ContinueOnError)
	var data dataFlags
	data.register(fs)
	levelsStr := fs.String("levels", "",
		"generalization levels, Attr=level pairs (default: dataset-specific)")
	targetStr := fs.String("target", "", "target atom, e.g. 't[17]=Sales' (row index as person; -data hospital uses the paper's names)")
	phiStr := fs.String("phi", "", "knowledge: ';'-separated implications, e.g. 't[3]=Sales -> t[17]=Sales'")
	samples := fs.Int("samples", 200000, "Monte-Carlo sample budget")
	seed := fs.Int64("sample-seed", 1, "sampler seed")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *targetStr == "" {
		return fmt.Errorf("estimate: -target is required")
	}
	target, err := ckprivacy.ParseAtom(*targetStr)
	if err != nil {
		return err
	}
	phi, err := ckprivacy.ParseConjunction(*phiStr)
	if err != nil {
		return err
	}
	b, err := data.load()
	if err != nil {
		return err
	}
	levels, err := parseLevels(*levelsStr)
	if err != nil {
		return err
	}
	_, bz, err := bucketize(b, levels)
	if err != nil {
		return err
	}
	in, err := ckprivacy.WorldsFromBucketization(bz, b.Namer())
	if err != nil {
		return err
	}
	est, err := in.EstimateCondProb(target, phi, *samples, *workers, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("Pr(%s | B ∧ φ) ≈ %.4f ± %.4f  (accepted %d of %d samples)\n",
		target, est.Prob, est.StdErr, est.Accepted, est.Samples)
	if len(phi) > 0 {
		base, err := in.EstimateCondProb(target, nil, *samples, *workers, *seed+1)
		if err != nil {
			return err
		}
		fmt.Printf("without φ:      ≈ %.4f ± %.4f\n", base.Prob, base.StdErr)
	}
	return nil
}

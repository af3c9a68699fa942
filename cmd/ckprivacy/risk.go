package main

import (
	"flag"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

func cmdRisk(args []string) error {
	fs := flag.NewFlagSet("risk", flag.ContinueOnError)
	var data dataFlags
	data.register(fs)
	k := fs.Int("k", 3, "background knowledge bound (basic implications)")
	levelsStr := fs.String("levels", "",
		"generalization levels, Attr=level pairs (default: dataset-specific)")
	top := fs.Int("top", 20, "show only the N riskiest (bucket, value) pairs")
	weightsStr := fs.String("weights", "",
		"optional value sensitivity weights, e.g. 'Priv-house-serv=1,Sales=0.2' (others default to 1)")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
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
	p, bz, err := bucketize(b, levels)
	if err != nil {
		return err
	}
	engine := p.Engine()
	profile, err := engine.RiskProfile(bz, *k, *workers)
	if err != nil {
		return err
	}
	sort.SliceStable(profile, func(i, j int) bool {
		return profile[i].Disclosure > profile[j].Disclosure
	})
	fmt.Printf("per-target worst-case risk (k=%d, %d buckets, %d targets)\n\n",
		*k, len(bz.Buckets), len(profile))
	fmt.Printf("%-30s %-18s %10s %8s\n", "bucket", "value", "count", "risk")
	shown := 0
	for _, r := range profile {
		if shown >= *top {
			break
		}
		bkt := bz.Buckets[r.BucketIdx]
		fmt.Printf("%-30s %-18s %10d %8.4f\n", bkt.Key, r.Value, bkt.Count(r.Value), r.Disclosure)
		shown++
	}

	if *weightsStr != "" {
		weights, err := parseWeights(*weightsStr)
		if err != nil {
			return err
		}
		wf := func(v string) float64 {
			if w, ok := weights[v]; ok {
				return w
			}
			return 1
		}
		weighted, err := engine.WeightedMaxDisclosure(bz, *k, wf)
		if err != nil {
			return err
		}
		plain, err := engine.MaxDisclosure(bz, *k)
		if err != nil {
			return err
		}
		fmt.Printf("\nunweighted max disclosure:  %.6f\n", plain)
		fmt.Printf("cost-weighted disclosure:   %.6f\n", weighted)
	}
	return nil
}

// parseWeights parses "value=0.5,other=1".
func parseWeights(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad weight %q (want value=weight)", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q: %v", part, err)
		}
		out[strings.TrimSpace(kv[0])] = w
	}
	return out, nil
}

// Riskprofile demonstrates the library's fixed-target extension (the
// paper's §6 "cost-based disclosure" future work): instead of one global
// worst-case number, compute the worst-case posterior for every
// (bucket, sensitive value) pair — a per-patient risk report — and weight
// values by how damaging their disclosure would be.
package main

import (
	"fmt"
	"log"
	"sort"

	"ckprivacy"
)

func main() {
	h := ckprivacy.NewHospitalExample()
	bz, err := h.Bucketize()
	if err != nil {
		log.Fatal(err)
	}
	engine := ckprivacy.NewEngine()

	const k = 1
	profile, err := engine.RiskProfile(bz, k, 1)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(profile, func(i, j int) bool { return profile[i].Disclosure > profile[j].Disclosure })

	fmt.Printf("per-diagnosis worst-case risk (k=%d implications of background knowledge):\n\n", k)
	fmt.Printf("%-18s %-16s %s\n", "bucket", "diagnosis", "worst-case Pr")
	for _, r := range profile {
		fmt.Printf("%-18s %-16s %.4f\n", bz.Buckets[r.BucketIdx].Key, r.Value, r.Disclosure)
	}

	// Cost-based disclosure: a flu diagnosis is mostly harmless, cancers
	// are grave. The weighted worst case tells the publisher which release
	// decisions are driven by the values that actually matter.
	weights := map[string]float64{
		"flu":            0.1,
		"mumps":          0.2,
		"heart-disease":  0.8,
		"lung-cancer":    1.0,
		"breast-cancer":  1.0,
		"ovarian-cancer": 1.0,
	}
	wf := func(v string) float64 { return weights[v] }

	plain, err := engine.MaxDisclosure(bz, k)
	if err != nil {
		log.Fatal(err)
	}
	weighted, err := engine.WeightedMaxDisclosure(bz, k, wf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunweighted max disclosure: %.4f (driven by flu)\n", plain)
	fmt.Printf("cost-weighted disclosure:  %.4f (graveness-adjusted)\n", weighted)

	// The targeted API answers per-individual questions directly: how bad
	// can it get for the male bucket's lung-cancer patients specifically?
	male := -1
	for i, b := range bz.Buckets {
		if b.Count("lung-cancer") > 0 {
			male = i
		}
	}
	d, err := engine.TargetedMaxDisclosure(bz, male, "lung-cancer", 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrisk that an attacker with 2 facts pins lung-cancer on a male-bucket patient: %.4f\n", d)
}

package core

import "ckprivacy/internal/bucket"

// OracleMaxDisclosure is minimize2Oracle's maximum disclosure of bz at k,
// exported to the external core_test package: tests that generate tables
// with internal/synth cannot live in package core, because synth reaches
// core through internal/dataload.
func OracleMaxDisclosure(bz *bucket.Bucketization, k int) float64 {
	rmin, _ := minimize2Oracle(bz, k, Options{})
	return disclosureFromRatio(rmin)
}

package core

import (
	"fmt"
	"strconv"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/logic"
)

// NegationMaxDisclosure computes the maximum disclosure against the
// ℓ-diversity adversary: k negated atoms about the target person
// ("individual X does not have sensitive value Y"). This is the dotted
// curve of the paper's Figure 5.
//
// Within a bucket, conditioning person p on avoiding a value set V (with
// s ∉ V) gives Pr(t_p[S]=s) = n_b(s) / (n_b − Σ_{v∈V} n_b(v)), so the worst
// case negates the k most frequent values other than the target value, and
// the maximum scans all buckets and all candidate target values.
//
// Negated atoms are a strict sublanguage of basic implications (§2.2), so
// this is always at most MaxDisclosure for the same k — the ordering the
// paper's Figure 5 demonstrates. Note the language here is target-centered;
// internal/worlds.MaxDisclosureNegations brute-forces negations about
// arbitrary persons, and the equivalence on small instances is checked in
// tests.
func NegationMaxDisclosure(bz *bucket.Bucketization, k int) (float64, error) {
	d, _, _, err := negationBest(bz, k)
	return d, err
}

// NegationSeries computes NegationMaxDisclosure for k = 0..maxK.
func NegationSeries(bz *bucket.Bucketization, maxK int) ([]float64, error) {
	if err := checkArgs(bz, maxK); err != nil {
		return nil, err
	}
	out := make([]float64, maxK+1)
	for k := 0; k <= maxK; k++ {
		d, _, _, err := negationBest(bz, k)
		if err != nil {
			return nil, err
		}
		out[k] = d
	}
	return out, nil
}

func negationBest(bz *bucket.Bucketization, k int) (float64, int, int, error) {
	if err := checkArgs(bz, k); err != nil {
		return 0, 0, 0, err
	}
	best, bestBucket, bestValue := -1.0, 0, 0
	for bi, b := range bz.Buckets {
		n := b.Size()
		top1, top := b.PrefixSum(k+1), b.PrefixSum(k)
		for si, count := range b.Histogram() {
			// Mass of the k most frequent values other than s.
			sum := top
			if si < k {
				sum = top1 - count
			}
			d := float64(count) / float64(n-sum)
			if d > best {
				best, bestBucket, bestValue = d, bi, si
			}
		}
	}
	return best, bestBucket, bestValue, nil
}

// NegationWitness describes a worst-case set of negated atoms.
type NegationWitness struct {
	// Disclosure is Pr(Target | B ∧ negations).
	Disclosure float64
	// Target is the atom whose posterior is maximized.
	Target logic.Atom
	// TargetBucket indexes the bucket of Target's person.
	TargetBucket int
	// Negated lists the atoms ruled out, all about Target's person. Fewer
	// than k atoms are returned when the bucket has fewer than k+1
	// distinct values (additional negations would be redundant).
	Negated []logic.Atom
}

// Phi encodes the negations as basic implications over the given sensitive
// domain.
func (w NegationWitness) Phi(domain []string) (logic.Conjunction, error) {
	return logic.Negations(w.Negated, domain)
}

// NegationWitnessFor reconstructs a worst-case negation set. Person names
// are produced by name (nil means the decimal tuple id). Every atom is
// about the target bucket's representative row (bucket.Bucket.Rep), so a
// bucketization built without row ids serves as well.
func NegationWitnessFor(bz *bucket.Bucketization, k int, name func(id int) string) (NegationWitness, error) {
	d, bi, si, err := negationBest(bz, k)
	if err != nil {
		return NegationWitness{}, err
	}
	if name == nil {
		name = strconv.Itoa
	}
	b := bz.Buckets[bi]
	person := name(b.Rep())
	w := NegationWitness{
		Disclosure:   d,
		Target:       logic.Atom{Person: person, Value: b.Value(si)},
		TargetBucket: bi,
	}
	for r := 0; r < b.Distinct() && len(w.Negated) < k; r++ {
		if r == si {
			continue
		}
		if si >= k && r >= k {
			break
		}
		if si < k && r >= k+1 {
			break
		}
		w.Negated = append(w.Negated, logic.Atom{Person: person, Value: b.Value(r)})
	}
	if len(w.Negated) > k {
		return NegationWitness{}, fmt.Errorf("core: internal error: %d negations for k = %d", len(w.Negated), k)
	}
	return w, nil
}

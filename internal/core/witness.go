package core

import (
	"fmt"
	"strconv"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/logic"
)

// Witness is a concrete worst-case knowledge formula achieving the maximum
// disclosure: k simple implications sharing the consequent Target (the form
// Theorem 9 guarantees is sufficient).
type Witness struct {
	// Disclosure is Pr(Target | B ∧ Implications).
	Disclosure float64
	// Target is the atom whose posterior is maximized.
	Target logic.Atom
	// TargetBucket is the index of the bucket containing Target's person.
	TargetBucket int
	// Implications are the k simple implications; their conjunction is the
	// maximizing φ ∈ L^k_basic. Implications that would duplicate an
	// existing atom are realized as tautologies Target → Target, which are
	// semantically equivalent padding.
	Implications []logic.SimpleImplication
}

// Phi returns the witness knowledge as a Conjunction.
func (w Witness) Phi() logic.Conjunction {
	c := make(logic.Conjunction, len(w.Implications))
	for i, s := range w.Implications {
		c[i] = s.Basic()
	}
	return c
}

// Witness reconstructs a maximizing set of implications alongside the
// maximum disclosure. Person names are produced by name (nil means the
// decimal tuple id). It names several persons per bucket, so it needs
// the buckets' row ids and fails on a bucketization built without them.
func (e *Engine) Witness(bz *bucket.Bucketization, k int, opt Options, name func(id int) string) (Witness, error) {
	if err := checkArgs(bz, k); err != nil {
		return Witness{}, err
	}
	if name == nil {
		name = strconv.Itoa
	}
	sc := m2Pool.Get().(*m2Scratch)
	defer m2Pool.Put(sc)
	e.rowPass(sc, bz, k+2, noStop)
	rmin := sc.dp(len(bz.Buckets), k, opt, true)[2*k]
	// The pooled sc stays out of the return statement (poolleak).
	w, err := witnessFrom(bz, k, rmin, sc, name)
	return w, err
}

// witnessFrom reconstructs the witness from a finished MINIMIZE2 run over
// bz that kept its choices: its minimum rmin and the choice table in sc.
// The minimizing compositions of the at most k+1 placement buckets are
// recomputed here: a bucket's published row holds values only.
func witnessFrom(bz *bucket.Bucketization, k int, rmin float64, sc *m2Scratch, name func(id int) string) (Witness, error) {
	// Walk the DP choices to recover per-bucket antecedent counts and the
	// placement of A.
	type placement struct {
		bucket int
		cnt    int
		hasA   bool
	}
	var placements []placement
	h, placed := k, false
	for i := range bz.Buckets {
		pi := 0
		if placed {
			pi = 1
		}
		ch := sc.choiceAt(i, h, pi)
		if !ch.valid {
			return Witness{}, fmt.Errorf("core: no witness: disclosure is unattainable under the given options")
		}
		if ch.cnt > 0 || ch.placeHere {
			placements = append(placements, placement{bucket: i, cnt: ch.cnt, hasA: ch.placeHere})
		}
		h -= ch.cnt
		placed = placed || ch.placeHere
	}
	if !placed {
		return Witness{}, fmt.Errorf("core: no witness: consequent atom was never placed")
	}

	w := Witness{Disclosure: disclosureFromRatio(rmin)}
	var antecedents []logic.Atom
	for _, pl := range placements {
		b := bz.Buckets[pl.bucket]
		if len(b.Tuples) != b.Size() {
			return Witness{}, fmt.Errorf("core: witness names persons by row id, and bucket %d was built without row ids", pl.bucket)
		}
		atoms := pl.cnt
		if pl.hasA {
			atoms++
		}
		comp := m1Compute(b.Histogram(), atoms).comp
		for person, kj := range comp {
			if person >= len(b.Tuples) {
				break
			}
			pname := name(b.Tuples[person])
			for r := 0; r < kj && r < b.Distinct(); r++ {
				atom := logic.Atom{Person: pname, Value: b.Value(r)}
				if pl.hasA && person == 0 && r == 0 {
					// Lemma 12 guarantees the minimizing set contains an
					// atom naming the most frequent value; it becomes A.
					w.Target = atom
					w.TargetBucket = pl.bucket
					continue
				}
				antecedents = append(antecedents, atom)
			}
		}
	}
	if w.Target == (logic.Atom{}) {
		return Witness{}, fmt.Errorf("core: no witness: target atom reconstruction failed")
	}
	for _, a := range antecedents {
		w.Implications = append(w.Implications, logic.SimpleImplication{Ante: a, Cons: w.Target})
	}
	// Pad wasted atoms with tautologies so the witness stays in L^k_basic.
	for len(w.Implications) < k {
		w.Implications = append(w.Implications, logic.SimpleImplication{Ante: w.Target, Cons: w.Target})
	}
	if len(w.Implications) > k {
		return Witness{}, fmt.Errorf("core: internal error: witness has %d implications for k = %d", len(w.Implications), k)
	}
	return w, nil
}

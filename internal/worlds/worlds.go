// Package worlds is the exact random-worlds engine: it enumerates every
// table consistent with a bucketization (all within-bucket assignments of
// the sensitive-value multisets, each equally likely — the paper's §2.2
// assumption) and computes conditional probabilities with exact rational
// arithmetic.
//
// Everything here is exponential-time by design: Theorem 8 shows computing
// Pr(C | B ∧ φ) is #P-complete, so this package serves as the ground-truth
// oracle against which the polynomial-time algorithms in internal/core are
// validated, and as the engine for the paper's small worked examples.
package worlds

import (
	"fmt"
	"math/big"
	"sort"
	"strconv"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/logic"
)

// Bucket pairs the persons in one bucket with the multiset of sensitive
// values published for that bucket.
type Bucket struct {
	Persons []string
	Values  []string
}

// Instance is the attacker's view: full identification information (who is
// in which bucket) plus each bucket's sensitive-value multiset.
type Instance struct {
	Buckets []Bucket
}

// New builds an instance from per-bucket (persons, values) pairs given as
// alternating slices, validating as it goes.
func New(buckets ...Bucket) (Instance, error) {
	in := Instance{Buckets: buckets}
	if err := in.Validate(); err != nil {
		return Instance{}, err
	}
	return in, nil
}

// FromBucketization converts a bucketization into an instance. Person
// names are produced by name, defaulting to the decimal row index. Values
// come from the source table when the bucketization carries one; without
// one (bucket.FromValues) each bucket's values are its histogram in Freq
// order — under random worlds only a bucket's multiset matters, not which
// person holds which value. Persons are the buckets' row ids, so a
// bucketization built without them fails.
func FromBucketization(bz *bucket.Bucketization, name func(id int) string) (Instance, error) {
	if name == nil {
		name = strconv.Itoa
	}
	var in Instance
	for i, b := range bz.Buckets {
		if len(b.Tuples) != b.Size() {
			return Instance{}, fmt.Errorf("worlds: bucket %d was built without row ids, which name its persons", i)
		}
		wb := Bucket{}
		for _, id := range b.Tuples {
			wb.Persons = append(wb.Persons, name(id))
			if bz.Source != nil {
				wb.Values = append(wb.Values, bz.Source.SensitiveValue(id))
			}
		}
		if bz.Source == nil {
			for j, count := range b.Histogram() {
				for n := 0; n < count; n++ {
					wb.Values = append(wb.Values, b.Value(j))
				}
			}
		}
		in.Buckets = append(in.Buckets, wb)
	}
	return in, in.Validate()
}

// Validate checks structural sanity: equal persons/values lengths, no empty
// buckets, and globally unique person names.
func (in Instance) Validate() error {
	seen := map[string]bool{}
	for i, b := range in.Buckets {
		if len(b.Persons) == 0 {
			return fmt.Errorf("worlds: bucket %d is empty", i)
		}
		if len(b.Persons) != len(b.Values) {
			return fmt.Errorf("worlds: bucket %d has %d persons but %d values", i, len(b.Persons), len(b.Values))
		}
		for _, p := range b.Persons {
			if seen[p] {
				return fmt.Errorf("worlds: duplicate person %q", p)
			}
			seen[p] = true
		}
	}
	return nil
}

// Persons returns all person names in bucket order.
func (in Instance) Persons() []string {
	var out []string
	for _, b := range in.Buckets {
		out = append(out, b.Persons...)
	}
	return out
}

// Domain returns the sorted set of sensitive values appearing anywhere in
// the instance.
func (in Instance) Domain() []string {
	set := map[string]bool{}
	for _, b := range in.Buckets {
		for _, v := range b.Values {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// BucketOf returns the index of the bucket containing the person, or -1.
func (in Instance) BucketOf(person string) int {
	for i, b := range in.Buckets {
		for _, p := range b.Persons {
			if p == person {
				return i
			}
		}
	}
	return -1
}

// WorldCount returns the number of distinct tables consistent with the
// instance: the product over buckets of the multinomial
// n_b! / ∏_s n_b(s)!.
func (in Instance) WorldCount() *big.Int {
	total := big.NewInt(1)
	for _, b := range in.Buckets {
		counts := map[string]int{}
		for _, v := range b.Values {
			counts[v]++
		}
		m := new(big.Int).MulRange(1, int64(len(b.Values))) // n!
		for _, c := range counts {
			m.Div(m, new(big.Int).MulRange(1, int64(c)))
		}
		total.Mul(total, m)
	}
	return total
}

// EnumWorlds calls yield once per distinct consistent table. Distinct
// means distinct as an assignment persons → values; permutations that swap
// equal values are not re-counted, matching the uniform random-worlds
// distribution over tables. The assignment passed to yield is reused and
// must not be retained. Enumeration stops early when yield returns false.
func (in Instance) EnumWorlds(yield func(logic.Assignment) bool) {
	w := make(logic.Assignment)
	// remaining[i] holds bucket i's value multiset as sorted distinct
	// values with counts.
	type pool struct {
		vals   []string
		counts []int
	}
	pools := make([]*pool, len(in.Buckets))
	for i, b := range in.Buckets {
		m := map[string]int{}
		for _, v := range b.Values {
			m[v]++
		}
		p := &pool{}
		for v := range m {
			p.vals = append(p.vals, v)
		}
		sort.Strings(p.vals)
		p.counts = make([]int, len(p.vals))
		for j, v := range p.vals {
			p.counts[j] = m[v]
		}
		pools[i] = p
	}

	var rec func(bi, pi int) bool
	rec = func(bi, pi int) bool {
		if bi == len(in.Buckets) {
			return yield(w)
		}
		b := in.Buckets[bi]
		if pi == len(b.Persons) {
			return rec(bi+1, 0)
		}
		p := pools[bi]
		for j := range p.vals {
			if p.counts[j] == 0 {
				continue
			}
			p.counts[j]--
			w[b.Persons[pi]] = p.vals[j]
			ok := rec(bi, pi+1)
			p.counts[j]++
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}

// CondProb computes Pr(target | B ∧ φ) exactly, by counting consistent
// tables. It returns an error when φ is inconsistent with the bucketization
// (zero-probability conditioning).
func (in Instance) CondProb(target logic.Atom, phi logic.Conjunction) (*big.Rat, error) {
	num, den := int64(0), int64(0)
	in.EnumWorlds(func(w logic.Assignment) bool {
		if !phi.Eval(w) {
			return true
		}
		den++
		if target.Eval(w) {
			num++
		}
		return true
	})
	if den == 0 {
		return nil, fmt.Errorf("worlds: knowledge %q is inconsistent with the bucketization", phi)
	}
	return big.NewRat(num, den), nil
}

// Consistent reports whether some consistent table satisfies φ — the
// NP-complete decision problem of Theorem 8, decided by exhaustive search.
func (in Instance) Consistent(phi logic.Conjunction) bool {
	found := false
	in.EnumWorlds(func(w logic.Assignment) bool {
		if phi.Eval(w) {
			found = true
			return false
		}
		return true
	})
	return found
}

package worlds

import (
	"math/big"
	"reflect"
	"testing"
	"testing/quick"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/logic"
	"ckprivacy/internal/table"
)

// figure3 is the paper's published bucketization (Figure 3): a male bucket
// {flu, flu, lung, lung, mumps} and a female bucket
// {flu, flu, breast, ovarian, heart}, with the paper's person names.
func figure3(t *testing.T) Instance {
	t.Helper()
	in, err := New(
		Bucket{
			Persons: []string{"Bob", "Charlie", "Dave", "Ed", "Frank"},
			Values:  []string{"flu", "flu", "lung", "lung", "mumps"},
		},
		Bucket{
			Persons: []string{"Gloria", "Hannah", "Irma", "Jessica", "Karen"},
			Values:  []string{"flu", "flu", "breast", "ovarian", "heart"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func ratEq(t *testing.T, got *big.Rat, num, den int64, what string) {
	t.Helper()
	want := big.NewRat(num, den)
	if got.Cmp(want) != 0 {
		t.Errorf("%s = %s, want %s", what, got.RatString(), want.RatString())
	}
}

func TestValidate(t *testing.T) {
	if _, err := New(Bucket{Persons: []string{"a"}, Values: []string{}}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := New(Bucket{}); err == nil {
		t.Error("empty bucket accepted")
	}
	if _, err := New(
		Bucket{Persons: []string{"a"}, Values: []string{"x"}},
		Bucket{Persons: []string{"a"}, Values: []string{"y"}},
	); err == nil {
		t.Error("duplicate person accepted")
	}
}

// TestFromBucketization pins the sourceless (bucket.FromValues) instance:
// persons are the tuple ids, values each bucket's histogram in Freq order.
func TestFromBucketization(t *testing.T) {
	bz := bucket.FromValues([]string{"mumps", "flu", "mumps"}, []string{"cold"})
	in, err := FromBucketization(bz, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Bucket{
		{Persons: []string{"0", "1", "2"}, Values: []string{"mumps", "mumps", "flu"}},
		{Persons: []string{"3"}, Values: []string{"cold"}},
	}
	if !reflect.DeepEqual(in.Buckets, want) {
		t.Errorf("FromBucketization(FromValues) = %+v, want %+v", in.Buckets, want)
	}
}

func TestWorldCount(t *testing.T) {
	in := figure3(t)
	// 5!/(2!·2!·1!) = 30 and 5!/(2!·1!·1!·1!) = 60 → 1800.
	if got := in.WorldCount(); got.Cmp(big.NewInt(1800)) != 0 {
		t.Errorf("WorldCount = %s, want 1800", got)
	}
}

func TestEnumWorldsMatchesCount(t *testing.T) {
	in := figure3(t)
	n := 0
	seen := map[string]bool{}
	in.EnumWorlds(func(w logic.Assignment) bool {
		n++
		key := ""
		for _, p := range in.Persons() {
			key += w[p] + "/"
		}
		seen[key] = true
		return true
	})
	if n != 1800 || len(seen) != 1800 {
		t.Errorf("enumerated %d worlds, %d distinct, want 1800", n, len(seen))
	}
}

func TestEnumWorldsEarlyStop(t *testing.T) {
	in := figure3(t)
	n := 0
	in.EnumWorlds(func(logic.Assignment) bool { n++; return n < 7 })
	if n != 7 {
		t.Errorf("early stop after %d", n)
	}
}

func TestDomainAndBucketOf(t *testing.T) {
	in := figure3(t)
	dom := in.Domain()
	if len(dom) != 6 {
		t.Errorf("Domain = %v", dom)
	}
	if in.BucketOf("Ed") != 0 || in.BucketOf("Karen") != 1 || in.BucketOf("Alice") != -1 {
		t.Error("BucketOf wrong")
	}
}

// TestEdExample reproduces the paper's §1 Ed story exactly:
// 2/5 with no knowledge, 1/2 after ruling out mumps, 1 after also ruling
// out flu.
func TestEdExample(t *testing.T) {
	in := figure3(t)
	target := logic.Atom{Person: "Ed", Value: "lung"}

	p, err := in.CondProb(target, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, p, 2, 5, "Pr(Ed=lung)")

	noMumps, err := logic.Negation("Ed", "mumps", "lung")
	if err != nil {
		t.Fatal(err)
	}
	p, err = in.CondProb(target, logic.Conjunction{noMumps})
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, p, 1, 2, "Pr(Ed=lung | ¬mumps)")

	noFlu, err := logic.Negation("Ed", "flu", "lung")
	if err != nil {
		t.Fatal(err)
	}
	p, err = in.CondProb(target, logic.Conjunction{noMumps, noFlu})
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, p, 1, 1, "Pr(Ed=lung | ¬mumps ∧ ¬flu)")
}

// TestHannahCharlieExample reproduces the paper's §1/§3 cross-bucket
// example: Pr(Charlie=flu | Hannah=flu → Charlie=flu) = 10/19.
func TestHannahCharlieExample(t *testing.T) {
	in := figure3(t)
	phi := logic.Simple(logic.SimpleImplication{
		Ante: logic.Atom{Person: "Hannah", Value: "flu"},
		Cons: logic.Atom{Person: "Charlie", Value: "flu"},
	})
	p, err := in.CondProb(logic.Atom{Person: "Charlie", Value: "flu"}, phi)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, p, 10, 19, "Pr(Charlie=flu | Hannah=flu → Charlie=flu)")
}

func TestCondProbInconsistent(t *testing.T) {
	in, err := New(Bucket{Persons: []string{"p", "q"}, Values: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	// p≠a ∧ p≠b is inconsistent with the bucket.
	na, _ := logic.Negation("p", "a", "b")
	nb, _ := logic.Negation("p", "b", "a")
	if _, err := in.CondProb(logic.Atom{Person: "q", Value: "a"}, logic.Conjunction{na, nb}); err == nil {
		t.Error("inconsistent conditioning accepted")
	}
	if in.Consistent(logic.Conjunction{na, nb}) {
		t.Error("Consistent returned true for unsatisfiable knowledge")
	}
	if !in.Consistent(logic.Conjunction{na}) {
		t.Error("Consistent returned false for satisfiable knowledge")
	}
}

// TestConsistencyCouplesBuckets exercises the Theorem 8 intuition: the
// implications are individually satisfiable but jointly unsatisfiable with
// the bucketization.
func TestConsistencyCouplesBuckets(t *testing.T) {
	in, err := New(Bucket{Persons: []string{"p", "q"}, Values: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	// p=a → q=a is unsatisfiable together with p=b → q=b in a bucket
	// holding exactly {a, b}: someone must take a, forcing both to a.
	phi := logic.Simple(
		logic.SimpleImplication{Ante: logic.Atom{Person: "p", Value: "a"}, Cons: logic.Atom{Person: "q", Value: "a"}},
		logic.SimpleImplication{Ante: logic.Atom{Person: "p", Value: "b"}, Cons: logic.Atom{Person: "q", Value: "b"}},
	)
	if in.Consistent(phi) {
		t.Error("coupled implications should be inconsistent")
	}
	for _, single := range phi {
		if !in.Consistent(logic.Conjunction{single}) {
			t.Errorf("%v alone should be consistent", single)
		}
	}
}

func TestMaxDisclosureCommonConsequentK0(t *testing.T) {
	in := figure3(t)
	res, err := in.MaxDisclosureCommonConsequent(0, BruteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, res.Prob, 2, 5, "k=0 max disclosure")
}

// TestMaxDisclosureFig3K1 documents the erratum recorded under
// "Deviations from the paper" in docs/PAPER-MAP.md: the true maximum over
// L¹_basic for Figure 3 is 2/3 (via the within-bucket implication
// lung → flu, i.e. ¬lung), not the paper's quoted 10/19.
func TestMaxDisclosureFig3K1(t *testing.T) {
	if testing.Short() {
		t.Skip("brute force over 1800 worlds")
	}
	in := figure3(t)
	res, err := in.MaxDisclosureCommonConsequent(1, BruteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, res.Prob, 2, 3, "k=1 max disclosure")
}

// tiny instances used for the Theorem 9 and atom-restriction checks.
func tinyInstances(t *testing.T) []Instance {
	t.Helper()
	mk := func(bs ...Bucket) Instance {
		in, err := New(bs...)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	return []Instance{
		mk(Bucket{Persons: []string{"p", "q"}, Values: []string{"a", "b"}}),
		mk(Bucket{Persons: []string{"p", "q", "r"}, Values: []string{"a", "a", "b"}}),
		mk(
			Bucket{Persons: []string{"p", "q"}, Values: []string{"a", "b"}},
			Bucket{Persons: []string{"r", "s"}, Values: []string{"a", "a"}},
		),
		mk(
			Bucket{Persons: []string{"p", "q"}, Values: []string{"a", "a"}},
			Bucket{Persons: []string{"r", "s", "u"}, Values: []string{"a", "b", "b"}},
		),
	}
}

// TestTheorem9 checks the paper's central reduction on small instances: the
// maximum over arbitrary sets of k simple implications (arbitrary
// consequents, maximizing over every target atom) equals the maximum over
// common-consequent sets targeted at the consequent.
func TestTheorem9(t *testing.T) {
	if testing.Short() {
		t.Skip("exponential oracle comparison")
	}
	for i, in := range tinyInstances(t) {
		for k := 0; k <= 2; k++ {
			unres, err := in.MaxDisclosureUnrestricted(k, BruteOptions{})
			if err != nil {
				t.Fatalf("instance %d k=%d: %v", i, k, err)
			}
			common, err := in.MaxDisclosureCommonConsequent(k, BruteOptions{})
			if err != nil {
				t.Fatalf("instance %d k=%d: %v", i, k, err)
			}
			if unres.Prob.Cmp(common.Prob) != 0 {
				t.Errorf("instance %d k=%d: unrestricted %s vs common-consequent %s (phi=%v)",
					i, k, unres.Prob.RatString(), common.Prob.RatString(), unres.Phi)
			}
		}
	}
}

// TestBruteAtomRestrictionIsWLOG verifies that widening the atom space to
// constant-false atoms (values outside a person's bucket) never increases
// the brute-force maximum.
func TestBruteAtomRestrictionIsWLOG(t *testing.T) {
	if testing.Short() {
		t.Skip("exponential oracle comparison")
	}
	for i, in := range tinyInstances(t) {
		for k := 0; k <= 1; k++ {
			restricted, err := in.MaxDisclosureUnrestricted(k, BruteOptions{})
			if err != nil {
				t.Fatalf("instance %d k=%d: %v", i, k, err)
			}
			wide, err := in.unrestrictedOverAtoms(in.allAtoms(), k, BruteOptions{})
			if err != nil {
				t.Fatalf("instance %d k=%d: %v", i, k, err)
			}
			if restricted.Prob.Cmp(wide.Prob) != 0 {
				t.Errorf("instance %d k=%d: restricted %s vs wide %s",
					i, k, restricted.Prob.RatString(), wide.Prob.RatString())
			}
		}
	}
}

func TestBruteWorkCap(t *testing.T) {
	in := figure3(t)
	if _, err := in.MaxDisclosureCommonConsequent(3, BruteOptions{MaxWork: 10}); err == nil {
		t.Error("work cap not enforced")
	}
	if _, err := in.MaxDisclosureUnrestricted(2, BruteOptions{MaxWork: 10}); err == nil {
		t.Error("work cap not enforced (unrestricted)")
	}
	if _, err := in.MaxDisclosureNegations(2, BruteOptions{MaxWork: 10}); err == nil {
		t.Error("work cap not enforced (negations)")
	}
}

func TestMaxDisclosureNegationsSmall(t *testing.T) {
	// Bucket {a,a,b}: one negation (¬b for a target person) reveals a.
	in, err := New(Bucket{Persons: []string{"p", "q", "r"}, Values: []string{"a", "a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.MaxDisclosureNegations(1, BruteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, res.Prob, 1, 1, "negation k=1 on {a,a,b}")

	// Uniform bucket {a,b,c}: one negation leaves 1/2.
	in2, err := New(Bucket{Persons: []string{"p", "q", "r"}, Values: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = in2.MaxDisclosureNegations(1, BruteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, res.Prob, 1, 2, "negation k=1 on {a,b,c}")
}

// TestEnumWorldsCountProperty cross-checks EnumWorlds against the
// multinomial WorldCount on random small instances.
func TestEnumWorldsCountProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 7 {
			raw = raw[:7]
		}
		vals := make([]string, len(raw))
		persons := make([]string, len(raw))
		for i, r := range raw {
			vals[i] = string(rune('a' + r%3))
			persons[i] = string(rune('A' + i))
		}
		in, err := New(Bucket{Persons: persons, Values: vals})
		if err != nil {
			return false
		}
		n := 0
		in.EnumWorlds(func(logic.Assignment) bool { n++; return true })
		return in.WorldCount().Cmp(big.NewInt(int64(n))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestUniformMarginals checks the random-worlds marginal: within a bucket,
// Pr(p = s) = n_b(s)/n_b for every person p.
func TestUniformMarginals(t *testing.T) {
	in := figure3(t)
	for _, person := range []string{"Bob", "Ed", "Frank"} {
		p, err := in.CondProb(logic.Atom{Person: person, Value: "flu"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ratEq(t, p, 2, 5, "Pr("+person+"=flu)")
		p, err = in.CondProb(logic.Atom{Person: person, Value: "mumps"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ratEq(t, p, 1, 5, "Pr("+person+"=mumps)")
	}
}

// TestFromBucketizationNeedsRowIDs: persons are row ids, so a
// bucketization built without them (the histogram form a search caches)
// fails instead of yielding buckets with no persons.
func TestFromBucketizationNeedsRowIDs(t *testing.T) {
	s, err := table.NewSchema([]table.Attribute{
		{Name: "Sex", Kind: table.Categorical, Domain: []string{"M", "F"}},
		{Name: "Disease", Kind: table.Categorical, Domain: []string{"flu", "mumps"}},
	}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	tab := table.New(s)
	for _, r := range []table.Row{{"M", "flu"}, {"F", "mumps"}, {"M", "mumps"}} {
		tab.MustAppend(r)
	}
	for _, rowIDs := range []bool{true, false} {
		bz, _, err := bucket.ScanIndexed(tab.Encode(), hierarchy.CompiledSet{}, bucket.Levels{}, rowIDs, nil)
		if err != nil {
			t.Fatal(err)
		}
		in, err := FromBucketization(bz, nil)
		if (err == nil) != rowIDs {
			t.Fatalf("row ids %v: instance %+v, error %v", rowIDs, in, err)
		}
	}
}

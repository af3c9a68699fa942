package ckprivacy_test

import (
	"math"
	"strings"
	"testing"

	"ckprivacy"
)

const eps = 1e-9

// TestPublicAPIDisclosure walks the checking workflow end to end through
// the facade only.
func TestPublicAPIDisclosure(t *testing.T) {
	bz := ckprivacy.FromValues(
		[]string{"flu", "flu", "lung", "lung", "mumps"},
		[]string{"flu", "flu", "breast", "ovarian", "heart"},
	)
	d, err := ckprivacy.MaxDisclosure(bz, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-2.0/3) > eps {
		t.Errorf("MaxDisclosure = %v, want 2/3", d)
	}
	n, err := ckprivacy.NegationMaxDisclosure(bz, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n > d+eps {
		t.Errorf("negation %v exceeds implication %v", n, d)
	}

	e := ckprivacy.NewEngine()
	w, err := e.Witness(bz, 1, ckprivacy.DisclosureOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Disclosure-d) > eps || len(w.Implications) != 1 {
		t.Errorf("witness = %+v", w)
	}

	safe, err := e.IsCKSafe(bz, 0.7, 1)
	if err != nil || !safe {
		t.Errorf("IsCKSafe = %v, %v", safe, err)
	}
}

// TestPublicAPIEnforcement walks the enforcing workflow: schema → table →
// hierarchies → problem → minimal (c,k)-safe nodes → utility choice.
func TestPublicAPIEnforcement(t *testing.T) {
	schema, err := ckprivacy.NewSchema([]ckprivacy.Attribute{
		{Name: "Age", Kind: ckprivacy.Numeric, Min: 0, Max: 99},
		{Name: "Sex", Kind: ckprivacy.Categorical, Domain: []string{"M", "F"}},
		{Name: "Disease", Kind: ckprivacy.Categorical, Domain: []string{"flu", "cold", "mumps"}},
	}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	tab := ckprivacy.NewTable(schema)
	rows := []ckprivacy.Row{
		{"21", "M", "flu"}, {"22", "M", "cold"}, {"23", "M", "mumps"},
		{"31", "F", "flu"}, {"32", "F", "cold"}, {"33", "F", "mumps"},
		{"41", "M", "flu"}, {"42", "F", "cold"},
	}
	for _, r := range rows {
		tab.MustAppend(r)
	}
	ageH, err := ckprivacy.NewIntervalHierarchy("Age", []int{1, 10, 0})
	if err != nil {
		t.Fatal(err)
	}
	hs := ckprivacy.Hierarchies{
		"Age": ageH,
		"Sex": ckprivacy.NewSuppressionHierarchy("Sex", []string{"M", "F"}),
	}
	p, err := ckprivacy.NewProblem(tab, hs, []string{"Age", "Sex"})
	if err != nil {
		t.Fatal(err)
	}
	crit := ckprivacy.CKSafety{C: 0.9, K: 1, Engine: ckprivacy.NewEngine()}
	minimal, _, err := p.MinimalSafe(crit)
	if err != nil {
		t.Fatal(err)
	}
	if len(minimal) == 0 {
		t.Fatal("no minimal safe nodes")
	}
	idx, bz, err := p.BestByUtility(minimal, ckprivacy.Discernibility{})
	if err != nil || idx < 0 || bz == nil {
		t.Fatalf("BestByUtility = %d, %v, %v", idx, bz, err)
	}
	incog, _, err := p.MinimalSafeIncognito(crit)
	if err != nil {
		t.Fatal(err)
	}
	if len(incog) != len(minimal) {
		t.Errorf("incognito %v vs naive %v", incog, minimal)
	}
}

// TestPublicAPIOracle exercises the exact oracle and the knowledge parser
// through the facade.
func TestPublicAPIOracle(t *testing.T) {
	h := ckprivacy.NewHospitalExample()
	in, err := h.Instance()
	if err != nil {
		t.Fatal(err)
	}
	phi, err := ckprivacy.ParseConjunction("t[Hannah]=flu -> t[Charlie]=flu")
	if err != nil {
		t.Fatal(err)
	}
	p, err := in.CondProb(ckprivacy.Atom{Person: "Charlie", Value: "flu"}, phi)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Float64(); math.Abs(got-10.0/19) > eps {
		t.Errorf("CondProb = %v, want 10/19", got)
	}
}

// TestPublicAPIAdult exercises the synthetic dataset and Figure 5 harness.
func TestPublicAPIAdult(t *testing.T) {
	tab, err := ckprivacy.SyntheticAdult(ckprivacy.AdultConfig{N: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2000 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if got := len(ckprivacy.AdultSchema().Sensitive().Domain); got != 14 {
		t.Errorf("occupation domain = %d", got)
	}
	if got := len(ckprivacy.AdultQI()); got != 4 {
		t.Errorf("QI count = %d", got)
	}
	res, err := ckprivacy.RunFig5(tab, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 5") {
		t.Error("render missing title")
	}
}

// TestPublicAPICompleteness exercises the Theorem 3 construction via the
// facade's Universe alias.
func TestPublicAPICompleteness(t *testing.T) {
	u := ckprivacy.Universe{Persons: []string{"p", "q"}, Values: []string{"a", "b"}}
	c, err := u.Express(func(w ckprivacy.Assignment) bool { return w["p"] != w["q"] })
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Models(c); got != 2 {
		t.Errorf("models = %d, want 2", got)
	}
}

// splitting is a hierarchy that is not a nested coarsening: "a" and "b"
// share a level-1 group but split again at level 2.
type splitting struct{}

func (splitting) Name() string { return "City" }
func (splitting) Levels() int  { return 3 }
func (splitting) Generalize(v string, level int) (string, error) {
	switch {
	case level == 0:
		return v, nil
	case level == 1 && v == "c":
		return "y", nil
	case level == 1:
		return "x", nil
	case v == "a":
		return "p", nil
	default:
		return "q", nil
	}
}

// TestBucketizeRejectsUncoveredOrNonNested checks the facade's
// construction policy: Bucketize and NewProblem reject a hierarchy that
// does not cover a table value, or whose levels are not nested, with an
// error naming the attribute.
func TestBucketizeRejectsUncoveredOrNonNested(t *testing.T) {
	s, err := ckprivacy.NewSchema([]ckprivacy.Attribute{
		{Name: "City", Kind: ckprivacy.Categorical, Domain: []string{"a", "b", "c"}},
		{Name: "Disease", Kind: ckprivacy.Categorical, Domain: []string{"flu", "mumps"}},
	}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	tab := ckprivacy.NewTable(s)
	for _, r := range []ckprivacy.Row{{"a", "flu"}, {"b", "mumps"}, {"c", "flu"}} {
		tab.MustAppend(r)
	}
	for name, hs := range map[string]ckprivacy.Hierarchies{
		"uncovered":  {"City": ckprivacy.NewSuppressionHierarchy("City", []string{"a", "b"})},
		"non-nested": {"City": splitting{}},
	} {
		if _, err := ckprivacy.Bucketize(tab, hs, ckprivacy.Levels{"City": 1}); err == nil || !strings.Contains(err.Error(), `"City"`) {
			t.Errorf("%s: Bucketize error %v does not name attribute City", name, err)
		}
		if _, err := ckprivacy.NewProblem(tab, hs, []string{"City"}); err == nil || !strings.Contains(err.Error(), `"City"`) {
			t.Errorf("%s: NewProblem error %v does not name attribute City", name, err)
		}
	}
}

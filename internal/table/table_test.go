package table

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Attribute{
		{Name: "Age", Kind: Numeric, Min: 0, Max: 120},
		{Name: "Sex", Kind: Categorical, Domain: []string{"M", "F"}},
		{Name: "Disease", Kind: Categorical, Domain: []string{"flu", "cancer", "mumps"}},
	}, "Disease")
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name      string
		attrs     []Attribute
		sensitive string
		wantErr   bool
	}{
		{"empty", nil, "x", true},
		{"dup names", []Attribute{
			{Name: "A", Kind: Categorical, Domain: []string{"x"}},
			{Name: "A", Kind: Categorical, Domain: []string{"y"}},
		}, "A", true},
		{"missing sensitive", []Attribute{
			{Name: "A", Kind: Categorical, Domain: []string{"x"}},
		}, "B", true},
		{"empty categorical domain", []Attribute{
			{Name: "A", Kind: Categorical},
		}, "A", true},
		{"numeric min>max", []Attribute{
			{Name: "A", Kind: Numeric, Min: 5, Max: 1},
		}, "A", true},
		{"empty attr name", []Attribute{
			{Name: "", Kind: Numeric, Min: 0, Max: 1},
		}, "", true},
		{"ok", []Attribute{
			{Name: "A", Kind: Numeric, Min: 0, Max: 9},
			{Name: "S", Kind: Categorical, Domain: []string{"x", "y"}},
		}, "S", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSchema(c.attrs, c.sensitive)
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, c.wantErr)
			}
		})
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if got := s.Index("Sex"); got != 1 {
		t.Errorf("Index(Sex) = %d, want 1", got)
	}
	if got := s.Index("Nope"); got != -1 {
		t.Errorf("Index(Nope) = %d, want -1", got)
	}
	if s.Sensitive().Name != "Disease" {
		t.Errorf("Sensitive() = %q", s.Sensitive().Name)
	}
	qi := s.QuasiIdentifiers()
	if len(qi) != 2 || qi[0] != 0 || qi[1] != 1 {
		t.Errorf("QuasiIdentifiers() = %v", qi)
	}
	if names := s.Names(); strings.Join(names, ",") != "Age,Sex,Disease" {
		t.Errorf("Names() = %v", names)
	}
}

func TestAttributeValidate(t *testing.T) {
	age := Attribute{Name: "Age", Kind: Numeric, Min: 0, Max: 120}
	if err := age.Validate("35"); err != nil {
		t.Errorf("35: %v", err)
	}
	if err := age.Validate("abc"); err == nil {
		t.Error("abc accepted")
	}
	if err := age.Validate("121"); err == nil {
		t.Error("121 accepted")
	}
	if err := age.Validate("-1"); err == nil {
		t.Error("-1 accepted")
	}
	sex := Attribute{Name: "Sex", Kind: Categorical, Domain: []string{"M", "F"}}
	if err := sex.Validate("M"); err != nil {
		t.Errorf("M: %v", err)
	}
	if err := sex.Validate("X"); err == nil {
		t.Error("X accepted")
	}
	bad := Attribute{Name: "B", Kind: Kind(42)}
	if err := bad.Validate("x"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestKindString(t *testing.T) {
	if Categorical.String() != "categorical" || Numeric.String() != "numeric" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("Kind(9).String() = %q", Kind(9).String())
	}
}

func TestAppendAndAccess(t *testing.T) {
	tab := New(testSchema(t))
	if err := tab.Append(Row{"23", "M", "flu"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := tab.Append(Row{"23", "M"}); err == nil {
		t.Error("short row accepted")
	}
	if err := tab.Append(Row{"23", "M", "plague"}); err == nil {
		t.Error("bad sensitive value accepted")
	}
	if err := tab.Append(Row{"two", "M", "flu"}); err == nil {
		t.Error("non-numeric age accepted")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if tab.Value(0, 1) != "M" {
		t.Errorf("Value(0,1) = %q", tab.Value(0, 1))
	}
	if tab.SensitiveValue(0) != "flu" {
		t.Errorf("SensitiveValue(0) = %q", tab.SensitiveValue(0))
	}
	if n, err := tab.Int(0, 0); err != nil || n != 23 {
		t.Errorf("Int(0,0) = %d, %v", n, err)
	}
	if _, err := tab.Int(0, 1); err == nil {
		t.Error("Int on categorical column succeeded")
	}
}

func TestMustAppendPanics(t *testing.T) {
	tab := New(testSchema(t))
	defer func() {
		if recover() == nil {
			t.Error("MustAppend did not panic on invalid row")
		}
	}()
	tab.MustAppend(Row{"23"})
}

func TestProject(t *testing.T) {
	tab := New(testSchema(t))
	tab.MustAppend(Row{"23", "M", "flu"})
	tab.MustAppend(Row{"30", "F", "cancer"})

	p, err := tab.Project("Sex", "Disease")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if len(p.Schema.Attrs) != 2 || p.Schema.SensitiveIndex != 1 {
		t.Fatalf("projected schema = %+v", p.Schema)
	}
	if p.Value(1, 0) != "F" || p.SensitiveValue(1) != "cancer" {
		t.Errorf("projected rows = %v", p.Rows)
	}

	if _, err := tab.Project("Nope"); err == nil {
		t.Error("Project(Nope) succeeded")
	}
	if _, err := tab.Project("Age", "Sex"); err == nil {
		t.Error("Project without sensitive attribute succeeded")
	}
}

func TestFilterCloneSort(t *testing.T) {
	tab := New(testSchema(t))
	tab.MustAppend(Row{"40", "M", "flu"})
	tab.MustAppend(Row{"23", "F", "cancer"})
	tab.MustAppend(Row{"23", "M", "mumps"})

	f := tab.Filter(func(r Row) bool { return r[0] == "23" })
	if f.Len() != 2 {
		t.Fatalf("Filter kept %d rows", f.Len())
	}

	cl := tab.Clone()
	cl.Rows[0][0] = "99"
	if tab.Value(0, 0) != "40" {
		t.Error("Clone is not deep")
	}

	if err := tab.SortBy("Age", "Sex"); err != nil {
		t.Fatalf("SortBy: %v", err)
	}
	if tab.Value(0, 0) != "23" || tab.Value(0, 1) != "F" || tab.Value(2, 0) != "40" {
		t.Errorf("sorted rows = %v", tab.Rows)
	}
	if err := tab.SortBy("Nope"); err == nil {
		t.Error("SortBy(Nope) succeeded")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := New(testSchema(t))
	tab.MustAppend(Row{"23", "M", "flu"})
	tab.MustAppend(Row{"30", "F", "cancer"})

	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, tab.Schema)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Len() != 2 || got.Value(1, 1) != "F" {
		t.Errorf("round trip rows = %v", got.Rows)
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := testSchema(t)
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "Age,Sex,Illness\n23,M,flu\n"},
		{"bad row value", "Age,Sex,Disease\n23,M,plague\n"},
		{"short row", "Age,Sex,Disease\n23,M\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(c.in), s); err == nil {
				t.Error("no error")
			}
		})
	}
}

func TestCounts(t *testing.T) {
	tab := New(testSchema(t))
	tab.MustAppend(Row{"23", "M", "flu"})
	tab.MustAppend(Row{"24", "M", "flu"})
	tab.MustAppend(Row{"25", "F", "cancer"})

	m := tab.SensitiveCounts()
	if m["flu"] != 2 || m["cancer"] != 1 {
		t.Errorf("SensitiveCounts = %v", m)
	}
	sc := tab.SortedCounts(2)
	if sc[0].Value != "flu" || sc[0].Count != 2 || sc[1].Value != "cancer" {
		t.Errorf("SortedCounts = %v", sc)
	}
}

func TestSortCountsDeterministicOrder(t *testing.T) {
	// Equal counts must be ordered by value so reports are reproducible.
	sc := SortCounts(map[string]int{"b": 1, "a": 1, "c": 2})
	if sc[0].Value != "c" || sc[1].Value != "a" || sc[2].Value != "b" {
		t.Errorf("SortCounts = %v", sc)
	}
}

func TestSortCountsProperties(t *testing.T) {
	// Property: SortCounts preserves total mass and is sorted by
	// (count desc, value asc).
	f := func(counts map[string]uint8) bool {
		in := make(map[string]int, len(counts))
		total := 0
		for k, v := range counts {
			c := int(v%7) + 1
			in[k] = c
			total += c
		}
		out := SortCounts(in)
		sum := 0
		for i, vc := range out {
			sum += vc.Count
			if in[vc.Value] != vc.Count {
				return false
			}
			if i > 0 {
				prev := out[i-1]
				if prev.Count < vc.Count {
					return false
				}
				if prev.Count == vc.Count && prev.Value >= vc.Value {
					return false
				}
			}
		}
		return sum == total && len(out) == len(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSchemaDomainSet: NewSchema validates categorical values through a
// set it builds over a copy of the caller's attributes, and a Schema
// written as a literal (no set) accepts and rejects the same values with
// the same error text.
func TestSchemaDomainSet(t *testing.T) {
	attrs := []Attribute{
		{Name: "Sex", Kind: Categorical, Domain: []string{"M", "F"}},
		{Name: "Disease", Kind: Categorical, Domain: []string{"flu", "cancer"}},
	}
	built, err := NewSchema(attrs, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	if &built.Attrs[0] == &attrs[0] || attrs[0].domain != nil {
		t.Fatal("NewSchema wrote into the caller's attributes")
	}
	literal := &Schema{Attrs: attrs, SensitiveIndex: 1}
	for _, v := range []string{"M", "F", "X", "", "flu"} {
		got, want := built.Attrs[0].Validate(v), literal.Attrs[0].Validate(v)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("Validate(%q): built %v, literal %v", v, got, want)
		}
	}
	if err := New(literal).Append(Row{"F", "cancer"}); err != nil {
		t.Errorf("literal schema rejects a legal row: %v", err)
	}
}

// BenchmarkReadCSVLargeDomain loads 200,000 two-column rows whose
// quasi-identifier takes 20,000 categorical values: validation costs one
// set lookup per cell, not a walk of the domain.
func BenchmarkReadCSVLargeDomain(b *testing.B) {
	const rows, values = 200_000, 20_000
	domain := make([]string, values)
	for i := range domain {
		domain[i] = fmt.Sprintf("v%05d", i)
	}
	s, err := NewSchema([]Attribute{
		{Name: "Q", Kind: Categorical, Domain: domain},
		{Name: "S", Kind: Categorical, Domain: []string{"a", "b", "c"}},
	}, "S")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString("Q,S\n")
	for r := 0; r < rows; r++ {
		fmt.Fprintf(&buf, "%s,%s\n", domain[(r*7919)%values], []string{"a", "b", "c"}[r%3])
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(data), s); err != nil {
			b.Fatal(err)
		}
	}
}

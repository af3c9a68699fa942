package dataload

import (
	"strings"
	"testing"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
)

func TestHospitalBundle(t *testing.T) {
	b := Hospital()
	if b.Table.Len() != 10 {
		t.Fatalf("hospital has %d rows, want 10", b.Table.Len())
	}
	if got := b.Namer()(3); got != "Ed" {
		t.Errorf("row 3 is %q, want Ed", got)
	}
	bz, err := bucket.Bucketize(b.Table, b.Hierarchies, b.DefaultLevels)
	if err != nil {
		t.Fatal(err)
	}
	if len(bz.Buckets) != 2 {
		t.Fatalf("default levels give %d buckets, want the paper's 2", len(bz.Buckets))
	}
	// The Figure 3 partition's k=1 disclosure is 2/3 (one implication
	// pushes the top value's posterior to 2 of the remaining 3).
	d, err := core.MaxDisclosure(bz, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.66 || d > 0.67 {
		t.Errorf("hospital k=1 disclosure = %v, want 2/3", d)
	}
	// The bundle is searchable: its QI and hierarchies form a problem.
	if _, err := anonymize.NewProblem(b.Table, b.Hierarchies, b.QI); err != nil {
		t.Fatal(err)
	}
}

func TestAdultBundleSyntheticAndCSV(t *testing.T) {
	b, err := Adult("", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Table.Len() != 200 || len(b.QI) != 4 {
		t.Fatalf("bundle = %d rows, QI %v", b.Table.Len(), b.QI)
	}
	if _, err := bucket.Bucketize(b.Table, b.Hierarchies, b.DefaultLevels); err != nil {
		t.Fatalf("default levels do not bucketize: %v", err)
	}
	// Round-trip through CSV.
	var sb strings.Builder
	if err := b.Table.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	b2, err := AdultFromReader(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if b2.Table.Len() != 200 {
		t.Fatalf("round-trip = %d rows", b2.Table.Len())
	}
	if _, err := Adult("/nonexistent/adult.csv", 0, 1); err == nil {
		t.Error("missing CSV file accepted")
	}
}

func TestBuiltin(t *testing.T) {
	if b, err := Builtin("HOSPITAL", 0, 0); err != nil || b.Name != "hospital" {
		t.Errorf("Builtin(HOSPITAL) = %v, %v", b, err)
	}
	if b, err := Builtin("adult", 150, 7); err != nil || b.Table.Len() != 150 {
		t.Errorf("Builtin(adult, 150) = %v, %v", b, err)
	}
	if _, err := Builtin("nope", 0, 0); err == nil {
		t.Error("unknown builtin accepted")
	}
}

// miniSpec is a two-attribute custom dataset used by the spec tests.
func miniSpec() Spec {
	return Spec{
		Attributes: []AttrSpec{
			{Name: "Zip", Kind: "numeric", Min: 0, Max: 99999},
			{Name: "Shade", Kind: "categorical", Domain: []string{"red", "blue"}},
			{Name: "Illness", Kind: "categorical", Domain: []string{"flu", "cold", "mumps"}},
		},
		Sensitive: "Illness",
		Hierarchies: []HierarchySpec{
			{Attribute: "Zip", Kind: "interval", Widths: []int{1, 10, 0}},
			{Attribute: "Shade", Kind: "suppression"},
		},
		QI: []string{"Zip", "Shade"},
		CSV: "Zip,Shade,Illness\n" +
			"14850,red,flu\n14851,red,cold\n14852,blue,mumps\n14853,blue,flu\n",
		DefaultLevels: bucket.Levels{"Zip": 1},
	}
}

func TestFromSpec(t *testing.T) {
	b, err := FromSpec("mini", miniSpec())
	if err != nil {
		t.Fatal(err)
	}
	if b.Table.Len() != 4 || len(b.Hierarchies) != 2 {
		t.Fatalf("bundle = %d rows, %d hierarchies", b.Table.Len(), len(b.Hierarchies))
	}
	bz, err := bucket.Bucketize(b.Table, b.Hierarchies, b.DefaultLevels)
	if err != nil {
		t.Fatal(err)
	}
	if bz.Size() != 4 {
		t.Errorf("bucketization covers %d tuples", bz.Size())
	}
	if _, err := anonymize.NewProblem(b.Table, b.Hierarchies, b.QI); err != nil {
		t.Fatalf("spec bundle not searchable: %v", err)
	}
}

func TestFromSpecErrors(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown kind", func(s *Spec) { s.Attributes[0].Kind = "float" }},
		{"bad sensitive", func(s *Spec) { s.Sensitive = "nope" }},
		{"bad csv header", func(s *Spec) { s.CSV = "A,B,C\n1,red,flu\n" }},
		{"bad csv value", func(s *Spec) { s.CSV = "Zip,Shade,Illness\n14850,green,flu\n" }},
		{"no rows", func(s *Spec) { s.CSV = "Zip,Shade,Illness\n" }},
		{"hierarchy for unknown attr", func(s *Spec) { s.Hierarchies[0].Attribute = "nope" }},
		{"interval on categorical", func(s *Spec) { s.Hierarchies[0].Attribute = "Shade" }},
		{"suppression on numeric", func(s *Spec) { s.Hierarchies[1].Attribute = "Zip" }},
		{"unknown hierarchy kind", func(s *Spec) { s.Hierarchies[1].Kind = "magic" }},
		{"qi without hierarchy", func(s *Spec) { s.Hierarchies = s.Hierarchies[:1] }},
		{"qi not in schema", func(s *Spec) { s.QI = []string{"Zip", "nope"} }},
		{"sensitive as qi", func(s *Spec) { s.QI = []string{"Zip", "Illness"} }},
		{"default level out of range", func(s *Spec) { s.DefaultLevels = bucket.Levels{"Zip": 9} }},
		{"default level without hierarchy", func(s *Spec) { s.DefaultLevels = bucket.Levels{"nope": 0} }},
	}
	for _, m := range mutations {
		spec := miniSpec()
		m.mut(&spec)
		if _, err := FromSpec("mini", spec); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

// levelledSpec is miniSpec with an explicit-levels hierarchy on Shade.
func levelledSpec() Spec {
	spec := miniSpec()
	spec.Hierarchies[1] = HierarchySpec{
		Attribute: "Shade",
		Kind:      "levels",
		Levels:    []map[string]string{{"red": "warm", "blue": "cool"}, {"red": "*", "blue": "*"}},
	}
	return spec
}

func TestFromSpecLevelledHierarchy(t *testing.T) {
	b, err := FromSpec("mini", levelledSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Hierarchies["Shade"].Levels(); got != 3 {
		t.Errorf("Shade hierarchy has %d levels, want 3", got)
	}
}

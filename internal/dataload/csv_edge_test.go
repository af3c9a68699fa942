package dataload

import (
	"encoding/csv"
	"errors"
	"strings"
	"testing"

	"ckprivacy/internal/table"
)

// adultHeader is the Adult schema's CSV header line.
const adultHeader = "Age,MaritalStatus,Race,Sex,Occupation"

// TestAdultCSVEdgeCases pins the loader's failure modes: every malformed
// input produces a named error — matchable with errors.Is or naming the
// offending attribute/line — never a panic or a silently empty bundle.
func TestAdultCSVEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		csv  string
		// is, when non-nil, must match via errors.Is.
		is error
		// frag, when non-empty, must appear in the error text.
		frag string
	}{
		{
			name: "empty file",
			csv:  "",
			is:   table.ErrEmptyCSV,
		},
		{
			name: "header only",
			csv:  adultHeader + "\n",
			is:   ErrNoDataRows,
		},
		{
			name: "header only no trailing newline",
			csv:  adultHeader,
			is:   ErrNoDataRows,
		},
		{
			name: "ragged row",
			csv:  adultHeader + "\n39,Never-married,White,Male,Tech-support\n40,Divorced,White\n",
			is:   csv.ErrFieldCount,
			frag: "line 3",
		},
		{
			name: "unknown sensitive value",
			csv:  adultHeader + "\n39,Never-married,White,Male,Underwater-basket-weaving\n",
			frag: `"Occupation"`,
		},
		{
			name: "unknown categorical value",
			csv:  adultHeader + "\n39,Never-married,Purple,Male,Tech-support\n",
			frag: `"Race"`,
		},
		{
			name: "non-integer age",
			csv:  adultHeader + "\nforty,Never-married,White,Male,Tech-support\n",
			frag: `"Age"`,
		},
		{
			name: "age out of range",
			csv:  adultHeader + "\n5,Never-married,White,Male,Tech-support\n",
			frag: `"Age"`,
		},
		{
			name: "wrong header",
			csv:  "Age,Marital,Race,Sex,Occupation\n39,Never-married,White,Male,Tech-support\n",
			frag: `"Marital"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := AdultFromReader(strings.NewReader(tc.csv))
			if err == nil {
				t.Fatalf("loader accepted %q (bundle of %d rows)", tc.name, b.Table.Len())
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("error %q does not match sentinel %q", err, tc.is)
			}
			if tc.frag != "" && !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not name %s", err, tc.frag)
			}
		})
	}
}

// cityIllSpec is a one-QI spec over the given CSV text.
func cityIllSpec(csvText string) Spec {
	return Spec{
		Attributes: []AttrSpec{
			{Name: "City", Kind: "categorical", Domain: []string{"a", "b"}},
			{Name: "Ill", Kind: "categorical", Domain: []string{"y", "n"}},
		},
		Sensitive: "Ill",
		Hierarchies: []HierarchySpec{
			{Attribute: "City", Kind: "suppression"},
		},
		CSV: csvText,
	}
}

// TestSpecCSVEdgeCases pins the same failure modes through the
// declarative-spec path the registration endpoint uses.
func TestSpecCSVEdgeCases(t *testing.T) {
	if _, err := FromSpec("d", cityIllSpec("")); !errors.Is(err, table.ErrEmptyCSV) {
		t.Fatalf("empty csv: %v", err)
	}
	if _, err := FromSpec("d", cityIllSpec("City,Ill\n")); !errors.Is(err, ErrNoDataRows) {
		t.Fatalf("header-only csv: %v", err)
	}
	if _, err := FromSpec("d", cityIllSpec("City,Ill\na\n")); !errors.Is(err, csv.ErrFieldCount) {
		t.Fatalf("ragged csv: %v", err)
	}
	if _, err := FromSpec("d", cityIllSpec("City,Ill\na,maybe\n")); err == nil || !strings.Contains(err.Error(), `"Ill"`) {
		t.Fatalf("unknown sensitive value: %v", err)
	}
	if b, err := FromSpec("d", cityIllSpec("City,Ill\na,y\n")); err != nil || b.Table.Len() != 1 {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

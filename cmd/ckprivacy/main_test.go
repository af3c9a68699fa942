package main

import (
	"os"
	"strings"
	"testing"
)

func TestParseLevels(t *testing.T) {
	levels, err := parseLevels("Age=3, MaritalStatus=2,Race=1,Sex=0")
	if err != nil {
		t.Fatal(err)
	}
	if levels["Age"] != 3 || levels["MaritalStatus"] != 2 || levels["Sex"] != 0 {
		t.Errorf("levels = %v", levels)
	}
	if got, err := parseLevels(""); err != nil || len(got) != 0 {
		t.Errorf("empty = %v, %v", got, err)
	}
	for _, bad := range []string{"Age", "Age=x", "=3"} {
		if _, err := parseLevels(bad); err == nil && bad != "=3" {
			t.Errorf("parseLevels(%q) succeeded", bad)
		}
	}
	if _, err := parseLevels("Age=3,bogus"); err == nil {
		t.Error("bogus segment accepted")
	}
}

func TestParseKs(t *testing.T) {
	ks, err := parseKs("1, 3,5")
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 3 || ks[1] != 3 {
		t.Errorf("ks = %v", ks)
	}
	if got, err := parseKs(" "); err != nil || got != nil {
		t.Errorf("blank = %v, %v", got, err)
	}
	if _, err := parseKs("1,x"); err == nil {
		t.Error("bad k accepted")
	}
}

func TestRunDispatch(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("empty args accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help failed: %v", err)
	}
}

func TestCommandsSmoke(t *testing.T) {
	// Small synthetic runs through every command path (stdout is noisy but
	// harmless under go test).
	cases := [][]string{
		{"disclose", "-n", "400", "-k", "2", "-witness"},
		{"disclose", "-n", "400", "-k", "1", "-cross-bucket"},
		{"fig5", "-n", "400", "-maxk", "3", "-as-csv"},
		{"fig6", "-n", "400", "-ks", "1,3", "-as-csv"},
		{"safe", "-n", "400", "-c", "0.9", "-k", "1", "-method", "chain"},
		{"safe", "-n", "400", "-c", "0.9", "-k", "1", "-method", "incognito", "-utility", "buckets"},
		{"example"},
		{"risk", "-n", "400", "-k", "2", "-top", "5", "-weights", "Sales=0.5,Other-service=0.2"},
		{"fig6", "-n", "400", "-ks", "1,3", "-negation"},
		{"estimate", "-n", "400", "-samples", "2000", "-target", "t[0]=Sales",
			"-phi", "t[1]=Sales -> t[0]=Sales"},
		{"safe", "-n", "400", "-c", "0.9", "-k", "1", "-method", "naive", "-workers", "4"},
		{"risk", "-n", "400", "-k", "2", "-top", "5", "-workers", "0"},
		{"estimate", "-n", "400", "-samples", "2000", "-target", "t[0]=Sales",
			"-phi", "t[1]=Sales -> t[0]=Sales", "-workers", "4"},
		{"fig5", "-n", "400", "-maxk", "3", "-workers", "2", "-as-csv"},
		{"fig6", "-n", "400", "-ks", "1,3", "-workers", "0", "-as-csv"},
		{"grid", "-n", "400", "-cs", "0.7,0.9", "-ks", "1,3", "-workers", "0"},
		{"grid", "-n", "400", "-cs", "0.9", "-ks", "1", "-as-csv"},
		{"disclose", "-data", "hospital", "-k", "1", "-witness"},
		{"estimate", "-data", "hospital", "-samples", "2000",
			"-target", "t[Ed]=lung-cancer", "-phi", "t[Ed]=mumps -> t[Ed]=flu"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestCommandsErrors(t *testing.T) {
	cases := [][]string{
		{"disclose", "-levels", "bogus"},
		{"disclose", "-csv", "/nonexistent/file.csv"},
		{"disclose", "-data", "bogus"},
		{"disclose", "-data", "hospital", "-csv", "x.csv"},
		{"disclose", "-data", "hospital", "-n", "100"},
		{"disclose", "-data", "hospital", "-seed", "7"},
		{"fig5", "-data", "hospital"},
		{"fig6", "-data", "hospital"},
		{"safe", "-n", "200", "-method", "bogus"},
		{"safe", "-n", "200", "-utility", "bogus"},
		{"fig6", "-n", "200", "-ks", "1,x"},
		{"risk", "-n", "200", "-weights", "bogus"},
		{"estimate", "-n", "200"},                  // missing target
		{"estimate", "-n", "200", "-target", "zz"}, // bad atom
		{"estimate", "-n", "200", "-target", "t[0]=Sales", "-phi", "junk"},
		{"grid", "-n", "200", "-cs", "0.5,x"},
		{"grid", "-n", "200", "-ks", "1,x"},
		{"grid", "-n", "200", "-cs", "1.5"},
		// NaN fails every comparison, so each range check must be written
		// to reject it.
		{"safe", "-n", "200", "-c", "NaN"},
		{"grid", "-n", "200", "-cs", "NaN", "-ks", "1"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

func TestFigSVGFlags(t *testing.T) {
	dir := t.TempDir()
	f5 := dir + "/fig5.svg"
	f6 := dir + "/fig6.svg"
	if err := run([]string{"fig5", "-n", "400", "-maxk", "2", "-svg", f5}); err != nil {
		t.Fatalf("fig5 -svg: %v", err)
	}
	if err := run([]string{"fig6", "-n", "400", "-ks", "1", "-svg", f6}); err != nil {
		t.Fatalf("fig6 -svg: %v", err)
	}
	for _, p := range []string{f5, f6} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "<svg") {
			t.Errorf("%s is not an SVG", p)
		}
	}
	if err := run([]string{"fig5", "-n", "400", "-maxk", "2", "-svg", "/nonexistent/x.svg"}); err == nil {
		t.Error("unwritable svg path accepted")
	}
}

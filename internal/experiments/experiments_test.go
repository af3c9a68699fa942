package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ckprivacy/internal/dataset/adult"
	"ckprivacy/internal/logic"
	"ckprivacy/internal/table"
)

const eps = 1e-9

func smallAdult(t *testing.T) *table.Table {
	t.Helper()
	tab, err := adult.Generate(adult.Config{N: 4000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestRunFig5Shape(t *testing.T) {
	tab := smallAdult(t)
	res, err := RunFig5(tab, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ks) != 14 || len(res.Implication) != 14 || len(res.Negation) != 14 {
		t.Fatalf("lengths = %d/%d/%d", len(res.Ks), len(res.Implication), len(res.Negation))
	}
	// The Figure 5 generalization keeps only width-20 Age intervals; ages
	// 17..90 span intervals [0,20) [20,40) [40,60) [60,80) [80,100).
	if res.Buckets < 4 || res.Buckets > 5 {
		t.Errorf("buckets = %d, want 4..5", res.Buckets)
	}
	for i := range res.Ks {
		impl, neg := res.Implication[i], res.Negation[i]
		if impl < 0 || impl > 1 || neg < 0 || neg > 1 {
			t.Fatalf("k=%d out of range: %v %v", i, impl, neg)
		}
		// Paper: "the maximum disclosure for k negated atoms is always
		// smaller than the maximum disclosure for k implications".
		if neg > impl+eps {
			t.Errorf("k=%d: negation %v exceeds implication %v", i, neg, impl)
		}
		if i > 0 {
			if impl < res.Implication[i-1]-eps || neg < res.Negation[i-1]-eps {
				t.Errorf("curves not monotone at k=%d", i)
			}
		}
	}
	// Same starting point with no knowledge.
	if math.Abs(res.Implication[0]-res.Negation[0]) > eps {
		t.Errorf("k=0 points differ: %v vs %v", res.Implication[0], res.Negation[0])
	}
	// Paper: disclosure certainly reaches 1 at k = 13 (14 values).
	if res.Implication[13] != 1 || res.Negation[13] != 1 {
		t.Errorf("k=13 disclosure = %v / %v, want 1 / 1", res.Implication[13], res.Negation[13])
	}
}

func TestRunFig5DefaultsAndErrors(t *testing.T) {
	tab := smallAdult(t)
	res, err := RunFig5(tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ks) != 13 { // default maxK = 12
		t.Errorf("default Ks length = %d, want 13", len(res.Ks))
	}
	if _, err := RunFig5(tab, -2); err == nil {
		t.Error("negative maxK accepted")
	}
}

func TestFig5Render(t *testing.T) {
	tab := smallAdult(t)
	res, err := RunFig5(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "implication") {
		t.Errorf("render output missing headings:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got < 7 {
		t.Errorf("render has %d lines", got)
	}
	buf.Reset()
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 || lines[0] != "k,implication,negation" {
		t.Errorf("csv = %q", buf.String())
	}
}

func TestRunFig6Shape(t *testing.T) {
	tab := smallAdult(t)
	res, err := RunFig6(tab, []int{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 72 {
		t.Fatalf("points = %d, want 72 (the full lattice)", len(res.Points))
	}
	for i, pt := range res.Points {
		if i > 0 && pt.MinEntropy < res.Points[i-1].MinEntropy {
			t.Fatal("points not sorted by entropy")
		}
		d1, d5 := pt.Disclosure[1], pt.Disclosure[5]
		if d1 < 0 || d1 > 1 || d5 < 0 || d5 > 1 {
			t.Fatalf("node %v: disclosure out of range", pt.Node)
		}
		// More knowledge can only disclose more.
		if d5 < d1-eps {
			t.Errorf("node %v: k=5 (%v) below k=1 (%v)", pt.Node, d5, d1)
		}
	}
	// The fully generalized node (one bucket over 4000 tuples) must have
	// the highest entropy and, for k=1, low disclosure; ground nodes have
	// singleton buckets and disclosure 1.
	top := res.Points[len(res.Points)-1]
	if top.Buckets != 1 {
		t.Errorf("highest-entropy point has %d buckets", top.Buckets)
	}
	bottomFound := false
	for _, pt := range res.Points {
		if pt.Node.Height() == 0 { // the ground partition
			bottomFound = true
			if pt.Buckets < 200 {
				t.Errorf("ground node has only %d buckets", pt.Buckets)
			}
			// The ground partition has singleton buckets, so everything
			// is disclosed even with k=0-level knowledge.
			if pt.Disclosure[1] != 1 {
				t.Errorf("ground node has disclosure %v", pt.Disclosure[1])
			}
		}
	}
	if !bottomFound {
		t.Error("ground node missing from sweep")
	}
	// Directional claim of Figure 6: disclosure falls as min-entropy rises.
	// Compare the mean over the lowest and highest entropy thirds.
	third := len(res.Points) / 3
	lo, hi := 0.0, 0.0
	for i := 0; i < third; i++ {
		lo += res.Points[i].Disclosure[1]
		hi += res.Points[len(res.Points)-1-i].Disclosure[1]
	}
	if hi >= lo {
		t.Errorf("high-entropy tables disclose more on average: lo=%v hi=%v", lo/float64(third), hi/float64(third))
	}
}

func TestRunFig6DefaultsAndErrors(t *testing.T) {
	tab := smallAdult(t)
	if _, err := RunFig6(tab, []int{-1}); err == nil {
		t.Error("negative k accepted")
	}
	res, err := RunFig6(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ks) != len(DefaultFig6Ks) {
		t.Errorf("default ks = %v", res.Ks)
	}
}

func TestFig6EnvelopeAndRender(t *testing.T) {
	tab := smallAdult(t)
	res, err := RunFig6(tab, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	env := res.Envelope(1)
	if len(env) == 0 || len(env) > len(res.Points) {
		t.Fatalf("envelope size = %d", len(env))
	}
	for i := 1; i < len(env); i++ {
		if env[i].MinEntropy <= env[i-1].MinEntropy {
			t.Fatal("envelope entropies not strictly increasing")
		}
	}
	if res.Envelope(99) != nil {
		t.Error("unknown k produced envelope")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6") || !strings.Contains(buf.String(), "k=3") {
		t.Errorf("render output:\n%s", buf.String())
	}
	buf.Reset()
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 73 || lines[0] != "min_entropy,k1,k3" {
		t.Errorf("csv header/rows = %q, %d lines", lines[0], len(lines))
	}
}

// TestRunFig6Negation covers the paper's unshown "analogous graph for
// negation statements": same shape, pointwise below the implication curve.
func TestRunFig6Negation(t *testing.T) {
	tab := smallAdult(t)
	res, err := RunFig6Config(tab, Fig6Config{Ks: []int{1, 5}, Negation: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		for _, k := range res.Ks {
			if pt.Negation[k] > pt.Disclosure[k]+eps {
				t.Errorf("node %v k=%d: negation %v exceeds implication %v",
					pt.Node, k, pt.Negation[k], pt.Disclosure[k])
			}
		}
	}
	env := res.NegationEnvelope(1)
	if len(env) == 0 {
		t.Fatal("no negation envelope")
	}
	// Without the flag, negation data is absent.
	plain, err := RunFig6(tab, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NegationEnvelope(1) != nil {
		t.Error("negation envelope without the flag")
	}
}

func TestHospitalExample(t *testing.T) {
	h := HospitalExample()
	if h.Table.Len() != 10 || len(h.Names) != 10 {
		t.Fatalf("table/names = %d/%d", h.Table.Len(), len(h.Names))
	}
	bz, err := h.Bucketize()
	if err != nil {
		t.Fatal(err)
	}
	if len(bz.Buckets) != 2 || bz.MinSize() != 5 {
		t.Fatalf("bucketization = %d buckets, min %d", len(bz.Buckets), bz.MinSize())
	}
	in, err := h.Instance()
	if err != nil {
		t.Fatal(err)
	}
	// Reproduce the Hannah/Charlie number through the named instance.
	p, err := in.CondProb(
		logic.Atom{Person: "Charlie", Value: "flu"},
		logic.Simple(logic.SimpleImplication{
			Ante: logic.Atom{Person: "Hannah", Value: "flu"},
			Cons: logic.Atom{Person: "Charlie", Value: "flu"},
		}))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Float64(); math.Abs(got-10.0/19) > eps {
		t.Errorf("Pr(Charlie=flu | Hannah→Charlie) = %v, want 10/19", got)
	}
}

func TestHospitalRendering(t *testing.T) {
	h := HospitalExample()
	var buf bytes.Buffer
	if err := h.RenderFigure1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Ed") || !strings.Contains(out, "lung-cancer") {
		t.Errorf("figure 1 output:\n%s", out)
	}
	buf.Reset()
	if err := h.RenderFigure3(&buf, 42); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if strings.Contains(out, "Ed") {
		t.Error("figure 3 leaks names")
	}
	if !strings.Contains(out, "mumps") {
		t.Errorf("figure 3 missing sensitive values:\n%s", out)
	}
	// Deterministic for a fixed seed.
	var buf2 bytes.Buffer
	if err := h.RenderFigure3(&buf2, 42); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("figure 3 not deterministic for fixed seed")
	}
}

package lattice

import "testing"

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(nil); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := NewSpace([]int{2, 0}); err == nil {
		t.Error("zero-level dimension accepted")
	}
	s, err := NewSpace([]int{6, 3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 72 {
		t.Errorf("Size = %d, want 72 (the paper's Adult lattice)", s.Size())
	}
	if s.MaxHeight() != 5+2+1+1 {
		t.Errorf("MaxHeight = %d", s.MaxHeight())
	}
}

func TestMustSpacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSpace did not panic")
		}
	}()
	MustSpace(0)
}

func TestNodeBasics(t *testing.T) {
	s := MustSpace(3, 2)
	bottom, top := s.Bottom(), s.Top()
	if bottom.Key() != "0,0" || top.Key() != "2,1" {
		t.Errorf("bottom/top = %v/%v", bottom, top)
	}
	if bottom.Height() != 0 || top.Height() != 3 {
		t.Errorf("heights = %d/%d", bottom.Height(), top.Height())
	}
	if top.String() != "[2 1]" {
		t.Errorf("String = %q", top.String())
	}
	if !s.Contains(Node{1, 1}) || s.Contains(Node{3, 0}) || s.Contains(Node{0}) || s.Contains(Node{-1, 0}) {
		t.Error("Contains wrong")
	}
	c := top.Clone()
	c[0] = 0
	if top[0] != 2 {
		t.Error("Clone aliases")
	}
}

func TestLeq(t *testing.T) {
	if !Leq(Node{0, 1}, Node{1, 1}) {
		t.Error("0,1 ⪯ 1,1 failed")
	}
	if Leq(Node{1, 0}, Node{0, 1}) {
		t.Error("incomparable nodes reported ⪯")
	}
	if !Leq(Node{1, 1}, Node{1, 1}) {
		t.Error("reflexivity failed")
	}
	if Leq(Node{1}, Node{1, 1}) {
		t.Error("length mismatch accepted")
	}
}

func TestParentsChildren(t *testing.T) {
	s := MustSpace(3, 2)
	p := s.Parents(Node{1, 1})
	if len(p) != 1 || p[0].Key() != "2,1" {
		t.Errorf("Parents(1,1) = %v", p)
	}
	c := s.Children(Node{1, 1})
	if len(c) != 2 || c[0].Key() != "0,1" || c[1].Key() != "1,0" {
		t.Errorf("Children(1,1) = %v", c)
	}
	if len(s.Parents(s.Top())) != 0 || len(s.Children(s.Bottom())) != 0 {
		t.Error("top has parents or bottom has children")
	}
}

func TestAllOrderAndCount(t *testing.T) {
	s := MustSpace(3, 2, 2)
	all := s.All()
	if len(all) != 12 {
		t.Fatalf("All() has %d nodes", len(all))
	}
	seen := map[string]bool{}
	for i, n := range all {
		if seen[n.Key()] {
			t.Fatalf("duplicate node %v", n)
		}
		seen[n.Key()] = true
		if i > 0 && all[i-1].Height() > n.Height() {
			t.Fatalf("height order violated at %d: %v after %v", i, n, all[i-1])
		}
	}
	if all[0].Key() != "0,0,0" || all[len(all)-1].Key() != "2,1,1" {
		t.Errorf("ends = %v, %v", all[0], all[len(all)-1])
	}
}

func TestProjectAndSubSpace(t *testing.T) {
	s := MustSpace(6, 3, 2, 2)
	n := Node{4, 2, 1, 0}
	p := Project(n, []int{1, 3})
	if p.Key() != "2,0" {
		t.Errorf("Project = %v", p)
	}
	sub, err := s.SubSpace([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 6 {
		t.Errorf("SubSpace size = %d", sub.Size())
	}
	if _, err := s.SubSpace([]int{9}); err == nil {
		t.Error("bad dimension accepted")
	}
}

func TestChain(t *testing.T) {
	s := MustSpace(3, 2, 2)
	chain := s.Chain()
	if len(chain) != s.MaxHeight()+1 {
		t.Fatalf("chain length %d, want %d", len(chain), s.MaxHeight()+1)
	}
	if chain[0].Key() != s.Bottom().Key() || chain[len(chain)-1].Key() != s.Top().Key() {
		t.Error("chain endpoints wrong")
	}
	for i := 1; i < len(chain); i++ {
		if !Leq(chain[i-1], chain[i]) || chain[i].Height() != chain[i-1].Height()+1 {
			t.Errorf("chain step %d not a cover: %v -> %v", i, chain[i-1], chain[i])
		}
	}
}

// generatorPred builds a monotone predicate from generator nodes: true iff
// some generator lies at or below the node.
func generatorPred(gens []Node) Pred {
	return func(n Node) (bool, error) {
		for _, g := range gens {
			if Leq(g, n) {
				return true, nil
			}
		}
		return false, nil
	}
}

func TestMinimalSatisfyingPrunes(t *testing.T) {
	s := MustSpace(4, 4)
	// Generator at the bottom: everything satisfies; only one evaluation
	// needed.
	pred := generatorPred([]Node{s.Bottom()})
	minimal, stats, err := MinimalSatisfyingBatch(s, pred, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(minimal) != 1 || minimal[0].Key() != "0,0" {
		t.Errorf("minimal = %v", minimal)
	}
	if stats.Evaluated != 1 || stats.Inferred != s.Size()-1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestMinimalSatisfyingNone(t *testing.T) {
	s := MustSpace(2, 2)
	minimal, stats, err := MinimalSatisfyingBatch(s, generatorPred(nil), nil, 1)
	if err != nil || len(minimal) != 0 {
		t.Errorf("minimal = %v, err %v", minimal, err)
	}
	if stats.Evaluated != s.Size() {
		t.Errorf("stats = %+v", stats)
	}
}

func TestBinarySearchChain(t *testing.T) {
	s := MustSpace(5, 4, 3)
	chain := s.Chain()
	for threshold := 0; threshold <= s.MaxHeight()+1; threshold++ {
		pred := func(n Node) (bool, error) { return n.Height() >= threshold, nil }
		idx, stats, err := BinarySearchChainBatch(chain, pred, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := threshold
		if threshold > s.MaxHeight() {
			want = -1
		}
		if idx != want {
			t.Errorf("threshold %d: idx = %d, want %d", threshold, idx, want)
		}
		if stats.Evaluated > 5 { // ceil(log2(10)) + 1
			t.Errorf("threshold %d: %d evaluations", threshold, stats.Evaluated)
		}
	}
}

// weightedCheck builds a SubsetPred with Incognito's required properties
// from per-dimension badness weights: badness(S, n) = Σ_{d∈S}
// c[d]·(remaining levels); satisfied iff badness ≤ limit.
func weightedCheck(s Space, weights []int, limit int) (SubsetPred, Pred) {
	badness := func(subset []int, node Node) int {
		b := 0
		for i, d := range subset {
			b += weights[d] * (s.Dims()[d] - 1 - node[i])
		}
		return b
	}
	check := func(subset []int, node Node) (bool, error) {
		return badness(subset, node) <= limit, nil
	}
	full := make([]int, s.NumDims())
	for i := range full {
		full[i] = i
	}
	pred := func(n Node) (bool, error) { return badness(full, n) <= limit, nil }
	return check, pred
}

func TestIncognitoEvaluatesLessThanNaive(t *testing.T) {
	s := MustSpace(6, 3, 2, 2)
	check, _ := weightedCheck(s, []int{3, 2, 1, 1}, 6)
	_, stats, err := IncognitoBatch(s, check, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Naive evaluates all 72 full nodes; Incognito must not evaluate more
	// full-lattice nodes than that, and its pruning should bite.
	if stats.Evaluated >= s.Size()+40 {
		t.Errorf("Incognito evaluated %d checks", stats.Evaluated)
	}
	if stats.Inferred == 0 {
		t.Error("Incognito inferred nothing")
	}
}

func sameNodeSet(a, b []Node) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[string]bool{}
	for _, n := range a {
		set[n.Key()] = true
	}
	for _, n := range b {
		if !set[n.Key()] {
			return false
		}
	}
	return true
}

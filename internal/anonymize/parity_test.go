package anonymize

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/table"
)

// Randomized search-parity harness: for random tables, hierarchies, QI
// orders and (c,k) policies, a Problem must return the search results —
// nodes, bucketizations, disclosure values — that the string-path
// reference bucketizer (oracle.Bucketize) implies, with identical nodes
// and Stats at every worker count.

// randomProblemCase draws a random table + hierarchy set (every QI gets a
// hierarchy so subset searches can suppress attributes).
func randomProblemCase(rng *rand.Rand) (*table.Table, hierarchy.Set, []string) {
	nQI := 2 + rng.Intn(2)
	attrs := make([]table.Attribute, 0, nQI+1)
	hs := hierarchy.Set{}
	qi := make([]string, 0, nQI)
	widths := [][]int{{1, 2, 4, 0}, {1, 5, 0}, {1, 10, 0}}
	for i := 0; i < nQI; i++ {
		name := fmt.Sprintf("q%d", i)
		qi = append(qi, name)
		if rng.Intn(2) == 0 {
			attrs = append(attrs, table.Attribute{Name: name, Kind: table.Numeric, Min: 0, Max: 99})
			hs[name] = hierarchy.MustInterval(name, widths[rng.Intn(len(widths))])
		} else {
			d := 2 + rng.Intn(4)
			domain := make([]string, d)
			for j := range domain {
				domain[j] = fmt.Sprintf("c%d", j)
			}
			attrs = append(attrs, table.Attribute{Name: name, Kind: table.Categorical, Domain: domain})
			hs[name] = hierarchy.NewSuppression(name, domain)
		}
	}
	sdom := []string{"s0", "s1", "s2", "s3"}
	attrs = append(attrs, table.Attribute{Name: "sens", Kind: table.Categorical, Domain: sdom})
	s, err := table.NewSchema(attrs, "sens")
	if err != nil {
		panic(err)
	}
	tab := table.New(s)
	rows := 10 + rng.Intn(80)
	for r := 0; r < rows; r++ {
		row := make(table.Row, len(attrs))
		for c, a := range attrs {
			if a.Kind == table.Numeric {
				row[c] = strconv.Itoa(rng.Intn(100))
			} else {
				row[c] = a.Domain[rng.Intn(len(a.Domain))]
			}
		}
		tab.MustAppend(row)
	}
	// Shuffle the QI order so lattice dimension order varies too.
	rng.Shuffle(len(qi), func(i, j int) { qi[i], qi[j] = qi[j], qi[i] })
	return tab, hs, qi
}

// oracleLevels is the complete level assignment a full lattice node
// induces, built from the problem's inputs alone: each listed QI at the
// node's level, every other schema QI at its hierarchy's top level.
func oracleLevels(schema *table.Schema, hs hierarchy.Set, qi []string, node lattice.Node) bucket.Levels {
	levels := bucket.Levels{}
	for _, col := range schema.QuasiIdentifiers() {
		name := schema.Attrs[col].Name
		levels[name] = hs[name].Levels() - 1
	}
	for i, name := range qi {
		levels[name] = node[i]
	}
	return levels
}

// oracleBucketize bucketizes a full lattice node with oracle.Bucketize,
// the string-path reference, over the snapshot's pinned rows.
func oracleBucketize(s *Snapshot, node lattice.Node) (*bucket.Bucketization, error) {
	levels := oracleLevels(s.Table().Schema, s.p.Hierarchies, s.p.QI, node)
	return oracle.Bucketize(s.Table(), s.p.Hierarchies, levels)
}

// oraclePred is crit evaluated on oracle bucketizations.
func oraclePred(s *Snapshot, crit privacy.Criterion) lattice.Pred {
	return func(n lattice.Node) (bool, error) {
		bz, err := oracleBucketize(s, n)
		if err != nil {
			return false, err
		}
		return crit.Satisfied(bz)
	}
}

// searchResult is everything the three searches report that must not
// depend on the worker budget (ChainSearch's Evaluated count does, by
// design, so its Stats are left out).
type searchResult struct {
	minimal, incognito           []lattice.Node
	minimalStats, incognitoStats lattice.Stats
	chain                        lattice.Node
	chainOK                      bool
}

// checkAgainstOracle runs the three searches on the snapshot, then checks
// them and every lattice node's bucketization against the oracle:
// MinimalSafe and MinimalSafeIncognito must return oracle.NaiveMinimal's
// nodes over oracle buckets, ChainSearch the lowest chain node the oracle
// finds safe, and every bucketization and its disclosure must equal the
// oracle's byte for byte.
func checkAgainstOracle(t *testing.T, label string, s *Snapshot, c float64, k int) searchResult {
	t.Helper()
	crit := s.p.CKSafety(c, k)
	var res searchResult
	var err error
	if res.minimal, res.minimalStats, err = s.MinimalSafe(crit); err != nil {
		t.Fatalf("%s: MinimalSafe: %v", label, err)
	}
	if res.incognito, res.incognitoStats, err = s.MinimalSafeIncognito(crit); err != nil {
		t.Fatalf("%s: Incognito: %v", label, err)
	}
	if res.chain, res.chainOK, _, err = s.ChainSearch(crit); err != nil {
		t.Fatalf("%s: ChainSearch: %v", label, err)
	}

	want, err := oracle.NaiveMinimal(s.p.Space(), oraclePred(s, crit))
	if err != nil {
		t.Fatalf("%s: oracle search: %v", label, err)
	}
	if !sameNodeOrder(want, res.minimal) {
		t.Fatalf("%s: MinimalSafe %v, oracle %v", label, res.minimal, want)
	}
	if !sameNodeOrder(want, res.incognito) {
		t.Fatalf("%s: Incognito %v, oracle %v", label, res.incognito, want)
	}
	var wantChain lattice.Node
	for _, n := range s.p.Space().Chain() {
		ok, err := oraclePred(s, crit)(n)
		if err != nil {
			t.Fatalf("%s: oracle chain %v: %v", label, n, err)
		}
		if ok {
			wantChain = n
			break
		}
	}
	if res.chainOK != (wantChain != nil) || (res.chainOK && res.chain.Key() != wantChain.Key()) {
		t.Fatalf("%s: ChainSearch %v/%v, oracle %v", label, res.chain, res.chainOK, wantChain)
	}

	for _, node := range s.p.Space().All() {
		want, err := oracleBucketize(s, node)
		if err != nil {
			t.Fatalf("%s: oracle bucketize %v: %v", label, node, err)
		}
		got, err := s.Bucketize(node)
		if err != nil {
			t.Fatalf("%s: bucketize %v: %v", label, node, err)
		}
		oracle.RequireIdentical(t, want, got, fmt.Sprintf("%s node %v", label, node))
		wd, err := core.MaxDisclosure(want, k)
		if err != nil {
			t.Fatalf("%s: oracle disclosure %v: %v", label, node, err)
		}
		gd, err := core.MaxDisclosure(got, k)
		if err != nil {
			t.Fatalf("%s: disclosure %v: %v", label, node, err)
		}
		if wd != gd {
			t.Fatalf("%s: disclosure at %v: %v, oracle %v", label, node, gd, wd)
		}
	}
	return res
}

// problemWithWorkers builds a problem with the given lattice worker budget.
func problemWithWorkers(t *testing.T, tab *table.Table, hs hierarchy.Set, qi []string, workers int) *Problem {
	t.Helper()
	o := DefaultOptions()
	o.Workers = workers
	p, err := NewProblemWithOptions(tab, hs, qi, o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSearchParityEncodedVsLegacy checks all three searches on cold random
// problems against the legacy string-path bucketizer, which now lives on
// as oracle.Bucketize: nodes, bucketizations and disclosure values must
// match the oracle, and nodes and Stats must be identical at worker
// budgets 1 and 4.
func TestSearchParityEncodedVsLegacy(t *testing.T) {
	cases := 25
	if testing.Short() {
		cases = 8
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < cases; i++ {
		tab, hs, qi := randomProblemCase(rng)
		c := []float64{0.4, 0.6, 0.8}[rng.Intn(3)]
		k := rng.Intn(3)
		var ref searchResult
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("case %d (c=%v k=%d workers=%d)", i, c, k, workers)
			got := checkAgainstOracle(t, label, problemWithWorkers(t, tab, hs, qi, workers).Snapshot(), c, k)
			if workers == 1 {
				ref = got
			} else if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s: searches differ from workers=1: %+v vs %+v", label, got, ref)
			}
		}
	}
}

// nonNested is a custom Hierarchy violating the nested-coarsening law
// ("a" and "b" agree at level 1 but split at level 2).
type nonNested struct{}

func (nonNested) Name() string { return "q0" }
func (nonNested) Levels() int  { return 3 }
func (nonNested) Generalize(v string, level int) (string, error) {
	switch level {
	case 0:
		return v, nil
	case 1:
		if v == "c" {
			return "y", nil
		}
		return "x", nil
	default:
		if v == "a" {
			return "p", nil
		}
		return "q", nil
	}
}

// TestRejectsNonNestedOrUncoveredHierarchy pins the construction policy:
// the lattice searches' pruning is only sound on nested hierarchies
// (Theorem 14), so a law-violating hierarchy, or a table value a
// hierarchy does not cover, must fail NewProblem and the one-shot
// bucketizer with an error naming the attribute.
func TestRejectsNonNestedOrUncoveredHierarchy(t *testing.T) {
	s, err := table.NewSchema([]table.Attribute{
		{Name: "q0", Kind: table.Categorical, Domain: []string{"a", "b", "c"}},
		{Name: "sens", Kind: table.Categorical, Domain: []string{"s0", "s1"}},
	}, "sens")
	if err != nil {
		t.Fatal(err)
	}
	tab := table.New(s)
	rng := rand.New(rand.NewSource(9))
	for r := 0; r < 40; r++ {
		tab.MustAppend(table.Row{
			[]string{"a", "b", "c"}[rng.Intn(3)],
			[]string{"s0", "s1"}[rng.Intn(2)],
		})
	}
	for name, hs := range map[string]hierarchy.Set{
		"non-nested": {"q0": nonNested{}},
		"uncovered":  {"q0": hierarchy.NewSuppression("q0", []string{"a", "b"})},
	} {
		if _, err := NewProblem(tab, hs, []string{"q0"}); err == nil || !strings.Contains(err.Error(), `"q0"`) {
			t.Errorf("%s: NewProblem error %v does not name attribute q0", name, err)
		}
		if _, err := bucket.Bucketize(tab, hs, bucket.Levels{"q0": 1}); err == nil || !strings.Contains(err.Error(), `"q0"`) {
			t.Errorf("%s: Bucketize error %v does not name attribute q0", name, err)
		}
	}
}

// TestCoarsenIndexSeeded checks the incremental derivation is actually in
// play: a cold node-by-node sweep scans the rows once, derives every other
// node by coarsening a cached finer one, matches the oracle at every
// node, and a repeated sweep hits the cache.
func TestCoarsenIndexSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab, hs, qi := randomProblemCase(rng)
	p, err := NewProblem(tab, hs, qi)
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	for _, node := range p.Space().All() {
		got, err := snap.Bucketize(node)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleBucketize(snap, node)
		if err != nil {
			t.Fatal(err)
		}
		oracle.RequireIdentical(t, want, got, fmt.Sprintf("node %v", node))
	}
	size := uint64(p.Space().Size())
	if ss := p.SweepStats(); ss.BaseScans != 1 || ss.Coarsened != size-1 || ss.PlannedNodes != size {
		t.Fatalf("cold sweep stats %+v, want 1 base scan and %d coarsened", ss, size-1)
	}
	if got := p.CacheStats().Entries; got != p.Space().Size() {
		t.Fatalf("cache has %d entries, want %d", got, p.Space().Size())
	}
	before := p.CacheStats()
	for _, node := range p.Space().All() {
		if _, err := p.Bucketize(node); err != nil {
			t.Fatal(err)
		}
	}
	after := p.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("repeat sweep missed the cache: %d -> %d misses", before.Misses, after.Misses)
	}
}

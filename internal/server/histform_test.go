package server

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataload"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/logic"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/table"
	"ckprivacy/internal/utility"
	"ckprivacy/internal/worlds"
)

// This file checks which form of a bucketization each route reads. The
// routes whose answers are made of histograms (disclosure without a
// witness, every check criterion, anonymize jobs) read the histogram form,
// so a dataset's warm nodes hold no row ids; the routes that name persons
// (a witness, an estimate, a release) fill row ids in for their node only.
// Every answer equals a fresh library problem's.

// nodeLevels spells a lattice node out as the levels a request names.
func nodeLevels(qi []string, n lattice.Node) map[string]int {
	lv := make(map[string]int, len(qi))
	for i, name := range qi {
		lv[name] = n[i]
	}
	return lv
}

// rowIDNodes reads every node of p's lattice in the histogram form and
// returns the keys of those whose cached bucketization holds row ids.
// Every node must be cached already: the read materializes nothing.
func rowIDNodes(t *testing.T, p *anonymize.Problem) map[string]bool {
	t.Helper()
	all := p.Space().All()
	before := p.CacheStats().Misses
	bzs, err := p.Snapshot().BucketizeHistograms(all)
	if err != nil {
		t.Fatal(err)
	}
	if after := p.CacheStats().Misses; after != before {
		t.Fatalf("reading the lattice materialized %d nodes; every node should be cached", after-before)
	}
	out := map[string]bool{}
	for i, bz := range bzs {
		held := 0
		for _, b := range bz.Buckets {
			if b.Tuples != nil {
				held++
			}
		}
		switch held {
		case 0:
		case len(bz.Buckets):
			out[all[i].Key()] = true
		default:
			t.Fatalf("node %v: %d of %d buckets hold row ids", all[i], held, len(bz.Buckets))
		}
	}
	return out
}

// disclosureVariants are the option combinations of /v1/disclosure
// without a witness.
var disclosureVariants = []struct{ negation, crossBucket bool }{
	{false, false}, {true, false}, {false, true}, {true, true},
}

// checkCases pairs a /v1/check criterion spec with the library criterion
// it names, on a fresh engine: one case per criterion the route accepts.
func checkCases() []struct {
	spec map[string]any
	crit privacy.Criterion
} {
	return []struct {
		spec map[string]any
		crit privacy.Criterion
	}{
		{map[string]any{"criterion": "ck", "c": 0.7, "k": 2}, privacy.CKSafety{C: 0.7, K: 2, Engine: core.NewEngine()}},
		{map[string]any{"criterion": "negation-ck", "c": 0.7, "k": 2}, privacy.NegationCKSafety{C: 0.7, K: 2}},
		{map[string]any{"criterion": "k-anonymity", "k": 3}, privacy.KAnonymity{K: 3}},
		{map[string]any{"criterion": "distinct-l", "l": 2}, privacy.DistinctLDiversity{L: 2}},
		{map[string]any{"criterion": "entropy-l", "l": 2}, privacy.EntropyLDiversity{L: 2}},
		{map[string]any{"criterion": "recursive-cl", "c": 3, "l": 2}, privacy.RecursiveCLDiversity{C: 3, L: 2}},
	}
}

// checkDisclosure compares a /v1/disclosure answer with the library's on
// bz, the node's row-id bucketization in a fresh problem.
func checkDisclosure(got disclosureResponse, bz *bucket.Bucketization, k int, negation, crossBucket bool) error {
	d, err := core.NewEngine().MaxDisclosureOpt(bz, k, core.Options{ForbidSameBucketAntecedent: crossBucket})
	if err != nil {
		return err
	}
	if got.Disclosure != d || got.Buckets != len(bz.Buckets) || got.Tuples != bz.Size() || got.MinEntropy != bz.MinEntropy() {
		return fmt.Errorf("disclosure %v over %d buckets, %d tuples, min entropy %v; library %v, %d, %d, %v",
			got.Disclosure, got.Buckets, got.Tuples, got.MinEntropy, d, len(bz.Buckets), bz.Size(), bz.MinEntropy())
	}
	if !negation {
		if got.NegationDisclosure != nil {
			return fmt.Errorf("negation disclosure %v unasked", *got.NegationDisclosure)
		}
		return nil
	}
	nd, err := core.NegationMaxDisclosure(bz, k)
	if err != nil {
		return err
	}
	if got.NegationDisclosure == nil || *got.NegationDisclosure != nd {
		return fmt.Errorf("negation disclosure %v, library %v", got.NegationDisclosure, nd)
	}
	return nil
}

// checkWitness compares a witness disclosure's formula with the library's.
func checkWitness(got disclosureResponse, bz *bucket.Bucketization, k int, namer func(int) string) error {
	wit, err := core.NewEngine().Witness(bz, k, core.Options{}, namer)
	if err != nil {
		return err
	}
	want := make([]string, len(wit.Implications))
	for i, imp := range wit.Implications {
		want[i] = imp.String()
	}
	if got.Witness == nil || got.Witness.Target != wit.Target.String() || got.Witness.TargetBucket != wit.TargetBucket ||
		!slices.Equal(got.Witness.Implications, want) {
		return fmt.Errorf("witness %+v, library %v in bucket %d with %v", got.Witness, wit.Target, wit.TargetBucket, want)
	}
	return checkDisclosure(got, bz, k, false, false)
}

// checkEstimate compares an estimate with the library's at one worker.
func checkEstimate(got estimateResponse, bz *bucket.Bucketization, target, phi string, samples int, seed int64, namer func(int) string) error {
	in, err := worlds.FromBucketization(bz, namer)
	if err != nil {
		return err
	}
	atom, err := logic.ParseAtom(target)
	if err != nil {
		return err
	}
	conj, err := logic.ParseConjunction(phi)
	if err != nil {
		return err
	}
	est, err := in.EstimateCondProb(atom, conj, samples, 1, seed)
	if err != nil {
		return err
	}
	if got.Prob != est.Prob || got.StdErr != est.StdErr || got.Accepted != est.Accepted || got.Samples != est.Samples {
		return fmt.Errorf("estimate %+v, library %+v", got, est)
	}
	return nil
}

// TestHistogramRoutesHoldNoRowIDs: on a registered synthetic table, a
// disclosure for every node at k 1–4 in every option combination, a
// check for every node and criterion and an anonymize job with a utility
// answer as a fresh library problem does, bit for bit, and leave every
// cached node without row ids. A witness disclosure, an estimate and a
// release on one node each then answer as the library does and leave row
// ids on their own node's entry only, and an append keeps every entry's
// form.
func TestHistogramRoutesHoldNoRowIDs(t *testing.T) {
	const n, seed = 400, 3
	s, ts := newTestServer(t, Config{SearchWorkers: 1})
	if code := postJSON(t, ts.URL+"/v1/datasets",
		map[string]any{"name": "s", "synthetic": map[string]any{"n": n, "seed": seed}}, nil); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	ds, _ := s.registry.get("s")
	b, err := dataload.Adult("", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := anonymize.NewProblem(b.Table, b.Hierarchies, b.QI)
	if err != nil {
		t.Fatal(err)
	}
	all := fresh.Space().All()
	want := make([]*bucket.Bucketization, len(all))
	for i, node := range all {
		if want[i], err = fresh.Bucketize(node); err != nil {
			t.Fatal(err)
		}
	}

	for i, node := range all {
		lv := nodeLevels(b.QI, node)
		for k := 1; k <= 4; k++ {
			for _, v := range disclosureVariants {
				var got disclosureResponse
				req := map[string]any{"dataset": "s", "levels": lv, "k": k, "negation": v.negation, "cross_bucket": v.crossBucket}
				if code := postJSON(t, ts.URL+"/v1/disclosure", req, &got); code != http.StatusOK {
					t.Fatalf("disclosure %v = %d", req, code)
				}
				if err := checkDisclosure(got, want[i], k, v.negation, v.crossBucket); err != nil {
					t.Fatalf("node %v k %d %+v: %v", node, k, v, err)
				}
			}
		}
		for _, c := range checkCases() {
			req := map[string]any{"dataset": "s", "levels": lv}
			for key, val := range c.spec {
				req[key] = val
			}
			var got checkResponse
			if code := postJSON(t, ts.URL+"/v1/check", req, &got); code != http.StatusOK {
				t.Fatalf("check %v = %d", req, code)
			}
			safe, err := c.crit.Satisfied(want[i])
			if err != nil {
				t.Fatal(err)
			}
			if got.Safe != safe || got.Buckets != len(want[i].Buckets) || got.Criterion != c.crit.Name() {
				t.Fatalf("node %v %s: %+v, library safe %v over %d buckets", node, c.crit.Name(), got, safe, len(want[i].Buckets))
			}
		}
	}

	var acc anonymizeAccepted
	if code := postJSON(t, ts.URL+"/v1/anonymize", map[string]any{"dataset": "s", "criterion": "ck", "c": 0.5, "k": 2,
		"method": "incognito", "utility": "discernibility"}, &acc); code != http.StatusAccepted {
		t.Fatalf("anonymize = %d", code)
	}
	job := pollJob(t, ts.URL, acc.ID)
	if job.State != JobDone {
		t.Fatalf("job = %+v", job)
	}
	nodes, _, err := fresh.MinimalSafeIncognito(privacy.CKSafety{C: 0.5, K: 2, Engine: core.NewEngine()})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) < 2 {
		t.Fatalf("library finds %d minimal safe nodes; the test wants several to rank", len(nodes))
	}
	ranked := make([]*bucket.Bucketization, len(nodes))
	for i, node := range nodes {
		ranked[i] = want[slices.IndexFunc(all, func(m lattice.Node) bool { return slices.Equal(m, node) })]
		if !slices.Equal(job.Result.Nodes[i], []int(node)) {
			t.Fatalf("job nodes %v, library %v", job.Result.Nodes, nodes)
		}
	}
	best := utility.Best(utility.Discernibility{}, ranked)
	if got := job.Result.Best; got == nil || !slices.Equal(got.Node, []int(nodes[best])) ||
		got.Buckets != len(ranked[best].Buckets) || got.MinEntropy != ranked[best].MinEntropy() {
		t.Fatalf("job best %+v, library %v over %d buckets", got, nodes[best], len(ranked[best].Buckets))
	}

	if held := rowIDNodes(t, ds.problem); len(held) != 0 {
		t.Fatalf("histogram routes left row ids on %d of %d nodes", len(held), len(all))
	}

	const witNode, estNode, relNode, k = 5, 20, 40, 2
	var wit disclosureResponse
	if code := postJSON(t, ts.URL+"/v1/disclosure",
		map[string]any{"dataset": "s", "levels": nodeLevels(b.QI, all[witNode]), "k": k, "witness": true}, &wit); code != http.StatusOK {
		t.Fatalf("witness disclosure = %d", code)
	}
	if err := checkWitness(wit, want[witNode], k, b.Namer()); err != nil {
		t.Fatal(err)
	}
	const target, phi, samples, estSeed = "t[0]=Sales", "t[1]=Sales -> t[0]=Sales", 2000, 7
	var est estimateResponse
	if code := postJSON(t, ts.URL+"/v1/estimate", map[string]any{"dataset": "s", "levels": nodeLevels(b.QI, all[estNode]),
		"target": target, "phi": phi, "samples": samples, "seed": estSeed}, &est); code != http.StatusOK {
		t.Fatalf("estimate = %d", code)
	}
	if err := checkEstimate(est, want[estNode], target, phi, samples, estSeed, b.Namer()); err != nil {
		t.Fatal(err)
	}
	var created releaseCreated
	if code := postJSON(t, ts.URL+"/v1/datasets/s/releases",
		map[string]any{"levels": nodeLevels(b.QI, all[relNode])}, &created); code != http.StatusCreated {
		t.Fatalf("release = %d", code)
	}
	var audit releasesResponse
	if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/datasets/s/releases?k=%d", k), &audit); code != http.StatusOK {
		t.Fatalf("audit = %d", code)
	}
	d, err := core.NewEngine().MaxDisclosure(want[relNode], k)
	if err != nil {
		t.Fatal(err)
	}
	if created.Release.Buckets != len(want[relNode].Buckets) || created.Release.Rows != n ||
		len(audit.Releases) != 1 || *audit.Releases[0].Disclosure != d {
		t.Fatalf("release %+v, audit %+v; library %d buckets, disclosure %v", created.Release, audit.Releases, len(want[relNode].Buckets), d)
	}

	wantHeld := map[string]bool{all[witNode].Key(): true, all[estNode].Key(): true, all[relNode].Key(): true}
	if held := rowIDNodes(t, ds.problem); !maps.Equal(held, wantHeld) {
		t.Fatalf("row ids held at %v, want at %v only", held, wantHeld)
	}
	// An append patches every cached node in the form it was cached in.
	rows := make([][]string, 3)
	for i := range rows {
		rows[i] = b.Table.Rows[i]
	}
	if code := postJSON(t, ts.URL+"/v1/datasets/s/rows", map[string]any{"rows": rows}, nil); code != http.StatusOK {
		t.Fatalf("append = %d", code)
	}
	if held := rowIDNodes(t, ds.problem); !maps.Equal(held, wantHeld) {
		t.Fatalf("after an append, row ids held at %v, want at %v only", held, wantHeld)
	}
}

// hospitalAt is the library's hospital problem at a dataset version of
// the race test below, whose every append adds hospitalRows(): the
// paper's ten patients and version − 1 copies of that batch. It returns
// the problem's lattice nodes' row-id bucketizations.
func hospitalAt(t *testing.T, version int64) []*bucket.Bucketization {
	t.Helper()
	h := dataload.Hospital()
	tab := h.Table.Clone()
	for v := int64(1); v < version; v++ {
		for _, row := range hospitalRows() {
			if err := tab.Append(table.Row(row)); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := anonymize.NewProblem(tab, h.Hierarchies, h.QI)
	if err != nil {
		t.Fatal(err)
	}
	all := p.Space().All()
	bzs := make([]*bucket.Bucketization, len(all))
	for i, node := range all {
		if bzs[i], err = p.Bucketize(node); err != nil {
			t.Fatal(err)
		}
	}
	return bzs
}

// TestHistogramRoutesRaceAppends races histogram-route clients
// (disclosures in every option combination, checks) against row-id-route
// clients (witness disclosures, estimates, releases) and appends on one
// dataset; CI repeats it under the race detector. No request may fail,
// and every answer equals a fresh library problem's at the version the
// answer reports.
func TestHistogramRoutesRaceAppends(t *testing.T) {
	s, ts := newTestServer(t, Config{
		SearchWorkers: 1,
		MaxConcurrent: 8,
		GateWait:      30 * time.Second, // do not shed under test load
		MaxReleases:   64,
	})
	registerHospital(t, ts.URL, "h")
	ds, _ := s.registry.get("h")
	qi := ds.problem.QI
	all := ds.problem.Space().All()
	namer := dataload.Hospital().Namer()

	const rounds, appendEvery = 18, 3
	const appends = rounds / appendEvery
	type observation struct {
		version int64
		what    string
		verify  func(nodes []*bucket.Bucketization) error
	}
	var (
		mu   sync.Mutex
		seen []observation
		errs []string
	)
	observe := func(version int64, what string, verify func([]*bucket.Bucketization) error) {
		mu.Lock()
		seen = append(seen, observation{version, what, verify})
		mu.Unlock()
	}
	fail := func(format string, args ...any) {
		mu.Lock()
		errs = append(errs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	post := func(client *http.Client, path string, req map[string]any, out any, want int) bool {
		if code := postJSONClient(client, ts.URL+path, req, out); code != want {
			fail("%s %v = %d", path, req, code)
			return false
		}
		return true
	}
	// disclose sends client c's round-r disclosure without a witness.
	disclose := func(client *http.Client, c, r int) {
		i, k := (7*c+5*r)%len(all), 1+r%3
		v := disclosureVariants[(c+r)%len(disclosureVariants)]
		var got disclosureResponse
		req := map[string]any{"dataset": "h", "levels": nodeLevels(qi, all[i]), "k": k,
			"negation": v.negation, "cross_bucket": v.crossBucket}
		if post(client, "/v1/disclosure", req, &got, http.StatusOK) {
			observe(got.Version, fmt.Sprint(req), func(bzs []*bucket.Bucketization) error {
				return checkDisclosure(got, bzs[i], k, v.negation, v.crossBucket)
			})
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 60 * time.Second}
			checks := checkCases()
			for r := 0; r < rounds; r++ {
				disclose(client, c, r)
				i, ch := (7*c+5*r)%len(all), checks[r%len(checks)]
				req := map[string]any{"dataset": "h", "levels": nodeLevels(qi, all[i])}
				for key, val := range ch.spec {
					req[key] = val
				}
				var chk checkResponse
				if post(client, "/v1/check", req, &chk, http.StatusOK) {
					observe(chk.Version, fmt.Sprint(req), func(bzs []*bucket.Bucketization) error {
						safe, err := ch.crit.Satisfied(bzs[i])
						if err != nil {
							return err
						}
						if chk.Safe != safe || chk.Buckets != len(bzs[i].Buckets) {
							return fmt.Errorf("%+v, library safe %v over %d buckets", chk, safe, len(bzs[i].Buckets))
						}
						return nil
					})
				}
			}
		}(c)
	}
	// The appending client spreads its appends over the run, with
	// disclosures of its own between them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 60 * time.Second}
		for r := 0; r < rounds; r++ {
			if r%appendEvery == 0 {
				post(client, "/v1/datasets/h/rows", map[string]any{"rows": hospitalRows()}, nil, http.StatusOK)
			}
			disclose(client, 2, r)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 60 * time.Second}
		for r := 0; r < rounds; r++ {
			i, k := (3*r+1)%len(all), 1+r%2
			var wit disclosureResponse
			req := map[string]any{"dataset": "h", "levels": nodeLevels(qi, all[i]), "k": k, "witness": true}
			if post(client, "/v1/disclosure", req, &wit, http.StatusOK) {
				observe(wit.Version, fmt.Sprint(req), func(bzs []*bucket.Bucketization) error {
					return checkWitness(wit, bzs[i], k, namer)
				})
			}
			const target, samples, seed = "t[Ed]=flu", 300, 11
			var est estimateResponse
			req = map[string]any{"dataset": "h", "levels": nodeLevels(qi, all[i]), "target": target, "samples": samples, "seed": seed}
			if post(client, "/v1/estimate", req, &est, http.StatusOK) {
				observe(est.Version, fmt.Sprint(req), func(bzs []*bucket.Bucketization) error {
					return checkEstimate(est, bzs[i], target, "", samples, seed, namer)
				})
			}
			var created releaseCreated
			req = map[string]any{"levels": nodeLevels(qi, all[i])}
			if post(client, "/v1/datasets/h/releases", req, &created, http.StatusCreated) {
				observe(created.Release.Version, fmt.Sprint("release ", req), func(bzs []*bucket.Bucketization) error {
					if created.Release.Buckets != len(bzs[i].Buckets) {
						return fmt.Errorf("%d buckets, library %d", created.Release.Buckets, len(bzs[i].Buckets))
					}
					return nil
				})
			}
		}
	}()
	wg.Wait()
	for _, e := range errs {
		t.Error(e)
	}
	if t.Failed() {
		return
	}

	lib := map[int64][]*bucket.Bucketization{}
	at := func(version int64) []*bucket.Bucketization {
		if lib[version] == nil {
			lib[version] = hospitalAt(t, version)
		}
		return lib[version]
	}
	for _, o := range seen {
		if o.version < 1 || o.version > 1+appends {
			t.Fatalf("%s reports version %d", o.what, o.version)
		}
		if err := o.verify(at(o.version)); err != nil {
			t.Errorf("%s at version %d: %v", o.what, o.version, err)
		}
	}
	var audit releasesResponse
	if code := getJSON(t, ts.URL+"/v1/datasets/h/releases?k=2", &audit); code != http.StatusOK || len(audit.Releases) != rounds {
		t.Fatalf("audit = %d with %d releases, want %d", code, len(audit.Releases), rounds)
	}
	for _, rel := range audit.Releases {
		node, err := ds.problem.NodeForLevels(rel.Levels)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(all, func(m lattice.Node) bool { return slices.Equal(m, node) })
		d, err := core.NewEngine().MaxDisclosure(at(rel.Version)[i], 2)
		if err != nil {
			t.Fatal(err)
		}
		if *rel.Disclosure != d {
			t.Errorf("release %d at version %d: disclosure %v, library %v", rel.Index, rel.Version, *rel.Disclosure, d)
		}
	}
}

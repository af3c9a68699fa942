package server

import (
	"net/http"
	"strings"
	"testing"
)

// hospitalRows is a small batch of schema-valid hospital rows, including
// a disease value ("mumps" aside, "heart-disease") already known and one
// zip (14860) the base table never saw, so appends exercise dictionary
// growth.
func hospitalRows() [][]string {
	return [][]string{
		{"14850", "26", "M", "flu"},
		{"14860", "22", "F", "heart-disease"},
		{"14853", "23", "M", "mumps"},
	}
}

// TestAppendRowsEndpoint drives the streaming-ingest flow end to end:
// warm the dataset, append rows, and verify version, row count, warm-state
// patching and the post-append disclosure all reflect the grown table.
func TestAppendRowsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerHospital(t, ts.URL, "h")

	// Warm one lattice node so the append has something to patch.
	var disc disclosureResponse
	if code := postJSON(t, ts.URL+"/v1/disclosure", map[string]any{"dataset": "h", "k": 1}, &disc); code != http.StatusOK {
		t.Fatalf("disclosure = %d", code)
	}
	if disc.Version != 1 || disc.Tuples != 10 {
		t.Fatalf("pre-append disclosure version %d tuples %d", disc.Version, disc.Tuples)
	}

	var app appendRowsResponse
	if code := postJSON(t, ts.URL+"/v1/datasets/h/rows", map[string]any{"rows": hospitalRows()}, &app); code != http.StatusOK {
		t.Fatalf("append = %d", code)
	}
	if app.Version != 2 || app.Rows != 13 || app.Appended != 3 || app.Start != 10 {
		t.Fatalf("append response %+v", app)
	}
	if app.PatchedNodes < 1 {
		t.Fatalf("append patched %d nodes, want >= 1", app.PatchedNodes)
	}
	if app.NewCodes["Zip"] != 1 {
		t.Fatalf("new codes %v, want Zip to gain 14860", app.NewCodes)
	}

	var info datasetInfo
	if code := getJSON(t, ts.URL+"/v1/datasets/h", &info); code != http.StatusOK {
		t.Fatalf("get dataset = %d", code)
	}
	if info.Version != 2 || info.Rows != 13 {
		t.Fatalf("dataset info version %d rows %d, want 2/13", info.Version, info.Rows)
	}
	if info.DictCardinalities["Zip"] != 3 {
		t.Fatalf("Zip cardinality %d, want 3", info.DictCardinalities["Zip"])
	}

	// The same disclosure request now covers the appended rows at the new
	// version — served by the patched warm cache, not a rebuild.
	if code := postJSON(t, ts.URL+"/v1/disclosure", map[string]any{"dataset": "h", "k": 1}, &disc); code != http.StatusOK {
		t.Fatalf("post-append disclosure = %d", code)
	}
	if disc.Version != 2 || disc.Tuples != 13 {
		t.Fatalf("post-append disclosure version %d tuples %d, want 2/13", disc.Version, disc.Tuples)
	}

	// An estimate can target an appended row: the hospital namer only
	// names the paper's ten patients, so appended persons go by row index
	// (id 12 is the third appended row) instead of panicking.
	var est estimateResponse
	ereq := map[string]any{"dataset": "h", "target": "t[12]=mumps", "samples": 2000, "seed": 7}
	if code := postJSON(t, ts.URL+"/v1/estimate", ereq, &est); code != http.StatusOK {
		t.Fatalf("estimate on appended row = %d", code)
	}
	if est.Prob <= 0 || est.Prob > 1 {
		t.Fatalf("estimate prob %v outside (0, 1]", est.Prob)
	}
}

// TestAppendRowsValidation covers the rejection paths: unknown dataset,
// empty batch, schema-invalid rows (atomically — the version must not
// move), and the MaxRows limit.
func TestAppendRowsValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRows: 12})
	registerHospital(t, ts.URL, "h")

	if code := postJSON(t, ts.URL+"/v1/datasets/nope/rows", map[string]any{"rows": hospitalRows()}, nil); code != http.StatusNotFound {
		t.Fatalf("append to unknown dataset = %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/v1/datasets/h/rows", map[string]any{"rows": [][]string{}}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty append = %d, want 400", code)
	}
	var e errorBody
	bad := [][]string{{"14850", "26", "M", "flu"}, {"14850", "not-a-number", "M", "flu"}}
	if code := postJSON(t, ts.URL+"/v1/datasets/h/rows", map[string]any{"rows": bad}, &e); code != http.StatusBadRequest {
		t.Fatalf("invalid append = %d, want 400", code)
	}
	if !strings.Contains(e.Error, "Age") {
		t.Fatalf("invalid-append error %q does not name the attribute", e.Error)
	}
	var info datasetInfo
	getJSON(t, ts.URL+"/v1/datasets/h", &info)
	if info.Version != 1 || info.Rows != 10 {
		t.Fatalf("rejected appends moved the dataset to version %d rows %d", info.Version, info.Rows)
	}
	// 10 + 3 > MaxRows(12): the limit names both numbers.
	if code := postJSON(t, ts.URL+"/v1/datasets/h/rows", map[string]any{"rows": hospitalRows()}, &e); code != http.StatusBadRequest {
		t.Fatalf("over-limit append = %d, want 400", code)
	}
	if !strings.Contains(e.Error, "12-row limit") {
		t.Fatalf("over-limit error %q does not name the limit", e.Error)
	}
}

// TestJobsPinVersion checks anonymize jobs report the dataset version
// their search ran on, across an append.
func TestJobsPinVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerHospital(t, ts.URL, "h")
	runJob := func() *anonymizeResult {
		var acc anonymizeAccepted
		req := map[string]any{"dataset": "h", "criterion": "ck", "c": 0.9, "k": 1, "method": "chain"}
		if code := postJSON(t, ts.URL+"/v1/anonymize", req, &acc); code != http.StatusAccepted {
			t.Fatalf("submit = %d", code)
		}
		st := pollJob(t, ts.URL, acc.ID)
		if st.State != JobDone {
			t.Fatalf("job state %q (%s)", st.State, st.Error)
		}
		return st.Result
	}
	if res := runJob(); res.Version != 1 {
		t.Fatalf("pre-append job version %d, want 1", res.Version)
	}
	if code := postJSON(t, ts.URL+"/v1/datasets/h/rows", map[string]any{"rows": hospitalRows()}, nil); code != http.StatusOK {
		t.Fatalf("append = %d", code)
	}
	if res := runJob(); res.Version != 2 {
		t.Fatalf("post-append job version %d, want 2", res.Version)
	}
}

// TestReleasesAudit drives the sequential-release flow: record a release,
// append, record another, and read the pairwise intersection audit. The
// intersection partition is finer than either release restricted to the
// common persons, so its disclosure must be at least each release's own.
func TestReleasesAudit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerHospital(t, ts.URL, "h")

	var created releaseCreated
	if code := postJSON(t, ts.URL+"/v1/datasets/h/releases", map[string]any{}, &created); code != http.StatusCreated {
		t.Fatalf("release 1 = %d", code)
	}
	if created.Release.Version != 1 || created.Release.Rows != 10 || created.Release.Buckets != 2 {
		t.Fatalf("release 1 = %+v", created.Release)
	}
	if code := postJSON(t, ts.URL+"/v1/datasets/h/rows", map[string]any{"rows": hospitalRows()}, nil); code != http.StatusOK {
		t.Fatalf("append = %d", code)
	}
	req := map[string]any{"levels": map[string]int{"Zip": 2, "Age": 2, "Sex": 1}}
	if code := postJSON(t, ts.URL+"/v1/datasets/h/releases", req, &created); code != http.StatusCreated {
		t.Fatalf("release 2 = %d", code)
	}
	if created.Release.Version != 2 || created.Release.Rows != 13 || created.Retained != 2 {
		t.Fatalf("release 2 = %+v (retained %d)", created.Release, created.Retained)
	}

	var audit releasesResponse
	if code := getJSON(t, ts.URL+"/v1/datasets/h/releases?k=1", &audit); code != http.StatusOK {
		t.Fatalf("audit = %d", code)
	}
	if len(audit.Releases) != 2 || len(audit.Pairs) != 1 {
		t.Fatalf("audit has %d releases / %d pairs", len(audit.Releases), len(audit.Pairs))
	}
	pair := audit.Pairs[0]
	if pair.CommonTuples != 10 {
		t.Fatalf("pair covers %d common tuples, want 10", pair.CommonTuples)
	}
	for _, rel := range audit.Releases {
		if rel.Disclosure == nil {
			t.Fatalf("release %d missing its own disclosure", rel.Index)
		}
	}
	// Release 2 is fully generalized (one bucket over 13 rows); the
	// intersection with release 1 refines back to release 1's partition
	// over the common 10 persons, so the pair's disclosure must be at
	// least release 1's.
	if pair.Disclosure < *audit.Releases[0].Disclosure-1e-12 {
		t.Fatalf("intersection disclosure %v below release 1's %v",
			pair.Disclosure, *audit.Releases[0].Disclosure)
	}
	if audit.MaxPairDisclosure == nil || *audit.MaxPairDisclosure != pair.Disclosure {
		t.Fatalf("max pair disclosure %v, want %v", audit.MaxPairDisclosure, pair.Disclosure)
	}

	// Validation: bad k values.
	if code := getJSON(t, ts.URL+"/v1/datasets/h/releases?k=abc", nil); code != http.StatusBadRequest {
		t.Fatalf("k=abc audit = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/datasets/h/releases?k=999", nil); code != http.StatusBadRequest {
		t.Fatalf("k=999 audit = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/datasets/none/releases", nil); code != http.StatusNotFound {
		t.Fatalf("audit of unknown dataset = %d, want 404", code)
	}
}

// TestReleasesAuditDifferencing is the differencing attack across an
// append. The hospital table is released fully generalized, one bucket of
// its ten patients; one flu patient is appended and the same
// generalization released again. Holding both releases, an adversary
// subtracts the first bucket's histogram from the second's and learns the
// new patient's disease, so the pair discloses 1 at k = 0, although
// neither release does on its own. The pair's common persons stay ten.
func TestReleasesAuditDifferencing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerHospital(t, ts.URL, "h")
	top := map[string]any{"levels": map[string]int{"Zip": 2, "Age": 2, "Sex": 1}}
	var created releaseCreated
	if code := postJSON(t, ts.URL+"/v1/datasets/h/releases", top, &created); code != http.StatusCreated || created.Release.Buckets != 1 {
		t.Fatalf("release 1 = %d, %+v", code, created.Release)
	}
	if code := postJSON(t, ts.URL+"/v1/datasets/h/rows",
		map[string]any{"rows": [][]string{{"14850", "26", "M", "flu"}}}, nil); code != http.StatusOK {
		t.Fatalf("append = %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/datasets/h/releases", top, &created); code != http.StatusCreated || created.Release.Rows != 11 {
		t.Fatalf("release 2 = %d, %+v", code, created.Release)
	}
	var audit releasesResponse
	if code := getJSON(t, ts.URL+"/v1/datasets/h/releases?k=0", &audit); code != http.StatusOK || len(audit.Pairs) != 1 {
		t.Fatalf("audit = %d, %+v", code, audit)
	}
	for _, rel := range audit.Releases {
		if *rel.Disclosure >= 1 {
			t.Fatalf("release %d alone discloses %v; the pair should be what discloses", rel.Index, *rel.Disclosure)
		}
	}
	if pair := audit.Pairs[0]; pair.CommonTuples != 10 || pair.Buckets != 2 || pair.Disclosure != 1 {
		t.Fatalf("pair = %+v, want 10 common persons in 2 cells disclosing 1", pair)
	}
	if audit.MaxPairDisclosure == nil || *audit.MaxPairDisclosure != 1 {
		t.Fatalf("max pair disclosure %v, want 1", audit.MaxPairDisclosure)
	}
}

// TestReleasesBounded checks the release log evicts its oldest entry past
// MaxReleases and reports the eviction.
func TestReleasesBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxReleases: 2})
	registerHospital(t, ts.URL, "h")
	var created releaseCreated
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL+"/v1/datasets/h/releases", map[string]any{}, &created); code != http.StatusCreated {
			t.Fatalf("release %d = %d", i, code)
		}
	}
	if created.Retained != 2 || created.Evicted != 1 {
		t.Fatalf("retained %d evicted %d, want 2/1", created.Retained, created.Evicted)
	}
	var audit releasesResponse
	if code := getJSON(t, ts.URL+"/v1/datasets/h/releases", &audit); code != http.StatusOK {
		t.Fatalf("audit = %d", code)
	}
	if len(audit.Releases) != 2 || audit.Releases[0].Index != 1 || audit.Evicted != 1 {
		t.Fatalf("audit after eviction: %d releases, first index %d, evicted %d",
			len(audit.Releases), audit.Releases[0].Index, audit.Evicted)
	}
	// Identical retained releases: the intersection is the release itself,
	// so pairwise disclosure equals the per-release disclosure.
	if len(audit.Pairs) != 1 || audit.Pairs[0].Disclosure != *audit.Releases[0].Disclosure {
		t.Fatalf("identical releases: pair %+v vs release disclosure %v",
			audit.Pairs[0], *audit.Releases[0].Disclosure)
	}
}

// TestMetricsDatasetVersionFamilies checks the /metrics families added for
// the streaming substrate.
func TestMetricsDatasetVersionFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerHospital(t, ts.URL, "h")
	if code := postJSON(t, ts.URL+"/v1/datasets/h/rows", map[string]any{"rows": hospitalRows()}, nil); code != http.StatusOK {
		t.Fatalf("append = %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/datasets/h/releases", map[string]any{}, nil); code != http.StatusCreated {
		t.Fatalf("release = %d", code)
	}
	text := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		`ckprivacyd_dataset_version{dataset="h"} 2`,
		`ckprivacyd_dataset_rows{dataset="h"} 13`,
		`ckprivacyd_dataset_releases{dataset="h"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// yamlPathMethods parses the served OpenAPI document's paths section with
// a small indentation-based reader (the file's formatting is ours):
// two-space keys under "paths:" are templated paths, four-space keys under
// a path are HTTP methods.
func yamlPathMethods(t *testing.T, doc string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	inPaths := false
	var current string
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimRight(line, " ")
		if trimmed == "paths:" {
			inPaths = true
			continue
		}
		if !inPaths || trimmed == "" || strings.HasPrefix(strings.TrimSpace(trimmed), "#") {
			continue
		}
		if !strings.HasPrefix(trimmed, " ") {
			inPaths = false // a new top-level section ends paths
			continue
		}
		if strings.HasPrefix(trimmed, "  ") && !strings.HasPrefix(trimmed, "   ") && strings.HasSuffix(trimmed, ":") {
			current = strings.TrimSuffix(strings.TrimSpace(trimmed), ":")
			continue
		}
		if strings.HasPrefix(trimmed, "    ") && !strings.HasPrefix(trimmed, "     ") && strings.HasSuffix(trimmed, ":") && current != "" {
			out[current] = append(out[current], strings.TrimSuffix(strings.TrimSpace(trimmed), ":"))
		}
	}
	return out
}

// TestOpenAPICoversEveryRoute serves the spec and asserts every registered
// mux pattern — method and templated path — appears in it, so the spec
// cannot drift from the implementation silently.
func TestOpenAPICoversEveryRoute(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/openapi.yaml")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/openapi.yaml = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "yaml") {
		t.Fatalf("spec served as %q", ct)
	}
	doc := getText(t, ts.URL+"/v1/openapi.yaml")
	if !strings.HasPrefix(strings.TrimLeft(doc, "# \n"), "openapi: 3") &&
		!strings.Contains(doc, "openapi: 3") {
		t.Fatal("served document is not an OpenAPI 3 spec")
	}
	spec := yamlPathMethods(t, doc)
	if len(spec) == 0 {
		t.Fatal("parsed no paths from the spec")
	}
	for _, pattern := range s.Patterns() {
		parts := strings.SplitN(pattern, " ", 2)
		if len(parts) != 2 {
			t.Fatalf("unparseable mux pattern %q", pattern)
		}
		method, path := strings.ToLower(parts[0]), parts[1]
		methods, ok := spec[path]
		if !ok {
			t.Errorf("spec is missing path %q (pattern %q)", path, pattern)
			continue
		}
		found := false
		for _, m := range methods {
			if m == method {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("spec path %q lacks method %q (has %v)", path, method, methods)
		}
	}
	if t.Failed() {
		t.Logf("spec paths: %v", spec)
	}
}

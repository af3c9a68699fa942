package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataload"
	"ckprivacy/internal/privacy"
)

// newTestServer spins up the service on httptest with test-friendly
// limits.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(shutdownCtx)
	})
	return s, ts
}

// postJSON posts v and decodes the response body into out (when non-nil),
// returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("unmarshal %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// postJSONClient is postJSON without test plumbing, for concurrent
// clients; it returns 0 on transport errors.
func postJSONClient(client *http.Client, url string, v any, out any) int {
	body, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return 0
		}
	}
	return resp.StatusCode
}

// getJSONClient is getJSON's transport-error-tolerant sibling.
func getJSONClient(client *http.Client, url string, out any) int {
	resp, err := client.Get(url)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return 0
		}
	}
	return resp.StatusCode
}

// detailInt extracts an integer detail field from an error envelope
// (JSON numbers decode as float64).
func detailInt(e errorBody, key string) (int, bool) {
	f, ok := e.Detail[key].(float64)
	return int(f), ok
}

// getJSON GETs url into out, returning the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("unmarshal %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// getText GETs url as plain text.
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, data)
	}
	return string(data)
}

// registerHospital registers the built-in hospital example under name.
func registerHospital(t *testing.T, url, name string) {
	t.Helper()
	code := postJSON(t, url+"/v1/datasets",
		map[string]any{"name": name, "builtin": "hospital"}, nil)
	if code != http.StatusCreated {
		t.Fatalf("register hospital = %d", code)
	}
}

// pollJob polls a job until it reaches a terminal state.
func pollJob(t *testing.T, url, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st jobStatus
		if code := getJSON(t, url+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("poll %s = %d", id, code)
		}
		switch st.State {
		case JobDone, JobFailed, JobCancelled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEndToEnd is the acceptance flow: register a dataset, run a
// synchronous disclosure check twice (the repeat must be served warm),
// submit an async anonymize job, poll it to completion, and verify the
// returned nodes match the library's MinimalSafe answer.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerHospital(t, ts.URL, "hospital")

	// Synchronous disclosure on the registered dataset (default levels =
	// the paper's Figure 3 partition), with witness.
	var disc disclosureResponse
	req := map[string]any{"dataset": "hospital", "k": 1, "witness": true, "negation": true}
	if code := postJSON(t, ts.URL+"/v1/disclosure", req, &disc); code != http.StatusOK {
		t.Fatalf("disclosure = %d", code)
	}
	if disc.Buckets != 2 || disc.Tuples != 10 {
		t.Errorf("disclosure over %d buckets / %d tuples, want 2 / 10", disc.Buckets, disc.Tuples)
	}
	if disc.Disclosure < 0.66 || disc.Disclosure > 0.67 {
		t.Errorf("k=1 disclosure = %v, want 2/3", disc.Disclosure)
	}
	if disc.NegationDisclosure == nil || *disc.NegationDisclosure > disc.Disclosure+1e-12 {
		t.Errorf("negation disclosure %v should be <= full disclosure %v", disc.NegationDisclosure, disc.Disclosure)
	}
	if disc.Witness == nil || len(disc.Witness.Implications) != 1 {
		t.Fatalf("witness = %+v, want 1 implication", disc.Witness)
	}
	// Witness persons are the paper's names, courtesy of the bundle namer.
	if !strings.Contains(disc.Witness.Target, "t[") {
		t.Errorf("witness target %q is not an atom", disc.Witness.Target)
	}

	// The identical repeat must hit the warm per-dataset bucketization
	// cache, and the witness must read the rows the disclosure published
	// on the node's buckets; /metrics proves it.
	var disc2 disclosureResponse
	if code := postJSON(t, ts.URL+"/v1/disclosure", req, &disc2); code != http.StatusOK {
		t.Fatalf("repeat disclosure = %d", code)
	}
	if disc2.Disclosure != disc.Disclosure {
		t.Errorf("warm disclosure %v != cold %v", disc2.Disclosure, disc.Disclosure)
	}
	metrics := getText(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, `ckprivacyd_dataset_cache_hits_total{dataset="hospital"} 1`) {
		t.Errorf("metrics do not show the warm bucketization-cache hit:\n%s", grepMetrics(metrics, "dataset_cache"))
	}
	if strings.Contains(metrics, "ckprivacyd_engine_memo_hits_total 0\n") {
		t.Errorf("engine shows no row hits after a repeated identical request:\n%s", grepMetrics(metrics, "engine_memo"))
	}

	// (c,k)-safety verdict through /v1/check: the Figure 3 partition is
	// not (0.6,1)-safe (disclosure 2/3) but is (0.7,1)-safe.
	var chk checkResponse
	if code := postJSON(t, ts.URL+"/v1/check",
		map[string]any{"dataset": "hospital", "criterion": "ck", "c": 0.6, "k": 1}, &chk); code != http.StatusOK {
		t.Fatalf("check = %d", code)
	}
	if chk.Safe {
		t.Errorf("(0.6,1)-safety should fail at disclosure 2/3")
	}
	if code := postJSON(t, ts.URL+"/v1/check",
		map[string]any{"dataset": "hospital", "criterion": "ck", "c": 0.7, "k": 1}, &chk); code != http.StatusOK || !chk.Safe {
		t.Errorf("(0.7,1)-safety = %v (code %d), want safe", chk.Safe, 0)
	}

	// Async anonymization: minimal (c,k)-safe generalizations of the
	// hospital lattice, polled to completion.
	var acc anonymizeAccepted
	if code := postJSON(t, ts.URL+"/v1/anonymize",
		map[string]any{"dataset": "hospital", "criterion": "ck", "c": 0.7, "k": 1, "method": "minimal"},
		&acc); code != http.StatusAccepted {
		t.Fatalf("anonymize = %d", code)
	}
	st := pollJob(t, ts.URL, acc.ID)
	if st.State != JobDone || st.Result == nil {
		t.Fatalf("job = %+v", st)
	}

	// The service's answer must match the library's, computed directly.
	b := dataload.Hospital()
	p, err := anonymize.NewProblem(b.Table, b.Hierarchies, b.QI)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes, _, err := p.MinimalSafe(privacy.CKSafety{C: 0.7, K: 1, Engine: core.NewEngine()})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Result.Nodes) != len(wantNodes) {
		t.Fatalf("job found %d nodes, library found %d", len(st.Result.Nodes), len(wantNodes))
	}
	for i, want := range wantNodes {
		got := st.Result.Nodes[i]
		if fmt.Sprint(got) != fmt.Sprint([]int(want)) {
			t.Errorf("node %d = %v, want %v", i, got, want)
		}
	}
	if !st.Result.Exists || st.Result.Best == nil || st.Result.Best.Buckets == 0 {
		t.Errorf("result lacks utility ranking: %+v", st.Result)
	}
}

// grepMetrics keeps the lines mentioning substr, for readable failures.
func grepMetrics(metrics, substr string) string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func TestInlineGroupsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// The quickstart bucketization, inline — no registration needed.
	var disc disclosureResponse
	req := map[string]any{
		"groups": [][]string{
			{"flu", "flu", "lung-cancer", "lung-cancer", "mumps"},
			{"flu", "flu", "breast-cancer", "ovarian-cancer", "heart-disease"},
		},
		"k": 1,
	}
	if code := postJSON(t, ts.URL+"/v1/disclosure", req, &disc); code != http.StatusOK {
		t.Fatalf("inline disclosure = %d", code)
	}
	if disc.Disclosure < 0.66 || disc.Disclosure > 0.67 {
		t.Errorf("inline k=1 disclosure = %v, want 2/3", disc.Disclosure)
	}

	var health struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz = %d %+v", code, health)
	}
}

func TestDatasetRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDatasets: 2})
	registerHospital(t, ts.URL, "hospital")

	// Duplicate names conflict.
	var e errorBody
	if code := postJSON(t, ts.URL+"/v1/datasets",
		map[string]any{"name": "hospital", "builtin": "hospital"}, &e); code != http.StatusConflict {
		t.Errorf("duplicate register = %d (%s)", code, e.Error)
	}

	// Registration via custom spec.
	spec := map[string]any{
		"name": "mini",
		"spec": map[string]any{
			"attributes": []map[string]any{
				{"name": "Zip", "kind": "numeric", "min": 0, "max": 99999},
				{"name": "Illness", "kind": "categorical", "domain": []string{"flu", "cold"}},
			},
			"sensitive": "Illness",
			"hierarchies": []map[string]any{
				{"attribute": "Zip", "kind": "interval", "widths": []int{1, 10, 0}},
			},
			"csv": "Zip,Illness\n14850,flu\n14851,cold\n14852,flu\n14853,cold\n",
		},
	}
	var info datasetInfo
	if code := postJSON(t, ts.URL+"/v1/datasets", spec, &info); code != http.StatusCreated {
		t.Fatalf("spec register = %d", code)
	}
	if info.Rows != 4 || info.Sensitive != "Illness" {
		t.Errorf("spec info = %+v", info)
	}

	// Registry is now full.
	if code := postJSON(t, ts.URL+"/v1/datasets",
		map[string]any{"name": "third", "builtin": "hospital"}, &e); code != http.StatusBadRequest {
		t.Errorf("register over capacity = %d", code)
	}

	var list struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if code := getJSON(t, ts.URL+"/v1/datasets", &list); code != http.StatusOK || len(list.Datasets) != 2 {
		t.Fatalf("list = %d, %d datasets", code, len(list.Datasets))
	}
	if list.Datasets[0].Name != "hospital" || list.Datasets[1].Name != "mini" {
		t.Errorf("listing order = %q, %q", list.Datasets[0].Name, list.Datasets[1].Name)
	}
	if code := getJSON(t, ts.URL+"/v1/datasets/mini", &info); code != http.StatusOK || info.Name != "mini" {
		t.Errorf("get dataset = %d %+v", code, info)
	}
	if code := getJSON(t, ts.URL+"/v1/datasets/ghost", &e); code != http.StatusNotFound {
		t.Errorf("get unknown dataset = %d", code)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxK: 4, MaxRows: 100})
	registerHospital(t, ts.URL, "h")

	var e errorBody
	cases := []struct {
		name string
		path string
		body map[string]any
		code int
	}{
		{"k over limit", "/v1/disclosure", map[string]any{"dataset": "h", "k": 5}, 400},
		{"negative k", "/v1/disclosure", map[string]any{"dataset": "h", "k": -1}, 400},
		{"unknown dataset", "/v1/disclosure", map[string]any{"dataset": "ghost", "k": 1}, 404},
		{"dataset and groups", "/v1/disclosure",
			map[string]any{"dataset": "h", "groups": [][]string{{"a"}}, "k": 1}, 400},
		{"groups with levels", "/v1/disclosure",
			map[string]any{"groups": [][]string{{"a", "b"}}, "levels": map[string]int{"Zip": 1}, "k": 1}, 400},
		{"no source", "/v1/disclosure", map[string]any{"k": 1}, 400},
		{"empty group", "/v1/disclosure", map[string]any{"groups": [][]string{{}}, "k": 1}, 400},
		{"bad levels attr", "/v1/disclosure",
			map[string]any{"dataset": "h", "levels": map[string]int{"Bogus": 1}, "k": 1}, 400},
		{"level out of range", "/v1/disclosure",
			map[string]any{"dataset": "h", "levels": map[string]int{"Zip": 9}, "k": 1}, 400},
		{"unknown field", "/v1/disclosure", map[string]any{"dataset": "h", "k": 1, "bogus": true}, 400},
		{"bad criterion", "/v1/check", map[string]any{"dataset": "h", "criterion": "magic"}, 400},
		{"ck without c", "/v1/check", map[string]any{"dataset": "h", "criterion": "ck", "k": 1}, 400},
		{"anonymize without dataset", "/v1/anonymize", map[string]any{"criterion": "ck", "c": 0.7, "k": 1}, 400},
		{"anonymize bad method", "/v1/anonymize",
			map[string]any{"dataset": "h", "c": 0.7, "k": 1, "method": "magic"}, 400},
		{"anonymize bad utility", "/v1/anonymize",
			map[string]any{"dataset": "h", "c": 0.7, "k": 1, "utility": "magic"}, 400},
		{"estimate without target", "/v1/estimate", map[string]any{"dataset": "h"}, 400},
		{"oversized inline groups", "/v1/disclosure",
			map[string]any{"groups": [][]string{bigGroup(101)}, "k": 1}, 400},
	}
	for _, c := range cases {
		if code := postJSON(t, ts.URL+c.path, c.body, &e); code != c.code {
			t.Errorf("%s: code = %d, want %d (%s)", c.name, code, c.code, e.Error)
		}
	}

	// Oversized bodies get 413, not a generic 400.
	_, tsTiny := newTestServer(t, Config{MaxBodyBytes: 64})
	if code := postJSON(t, tsTiny.URL+"/v1/disclosure",
		map[string]any{"groups": [][]string{bigGroup(40)}, "k": 1}, &e); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413 (%s)", code, e.Error)
	}

	// Unknown job and cancel-unknown-job 404.
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999999", &e); code != http.StatusNotFound {
		t.Errorf("unknown job = %d", code)
	}
	reqDel, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999999", nil)
	resp, err := http.DefaultClient.Do(reqDel)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job = %d", resp.StatusCode)
	}
}

func bigGroup(n int) []string {
	g := make([]string, n)
	for i := range g {
		g[i] = "v"
	}
	return g
}

// TestEstimateOffsets exercises the Monte-Carlo endpoint and the parser's
// position-carrying 400 bodies.
func TestEstimateOffsets(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerHospital(t, ts.URL, "hospital")

	var est estimateResponse
	req := map[string]any{
		"dataset": "hospital",
		"target":  "t[Ed]=lung-cancer",
		"phi":     "t[Ed]=mumps -> t[Ed]=flu",
		"samples": 20000,
		"seed":    1,
	}
	if code := postJSON(t, ts.URL+"/v1/estimate", req, &est); code != http.StatusOK {
		t.Fatalf("estimate = %d", code)
	}
	// Conditioning Ed away from mumps raises his lung-cancer posterior
	// above the 2/5 prior (the paper's §1 story); Monte-Carlo gives it
	// within a few σ.
	if est.Prob <= 0.4 || est.Prob >= 0.7 {
		t.Errorf("estimate = %v, want ≈ 1/2", est.Prob)
	}

	// A syntax error in phi yields a 400 whose envelope pinpoints the byte.
	var e errorBody
	bad := map[string]any{
		"dataset": "hospital",
		"target":  "t[Ed]=flu",
		"phi":     "t[Ed]=mumps -> junk",
	}
	if code := postJSON(t, ts.URL+"/v1/estimate", bad, &e); code != http.StatusBadRequest {
		t.Fatalf("bad phi = %d", code)
	}
	if e.Code != "syntax_error" {
		t.Errorf("error code = %q, want syntax_error", e.Code)
	}
	if off, ok := detailInt(e, "offset"); !ok || off != 15 {
		t.Errorf("error detail offset = %v, want 15 (start of \"junk\"); body: %+v", e.Detail["offset"], e)
	}
	badTarget := map[string]any{"dataset": "hospital", "target": "t[Ed]flu"}
	if code := postJSON(t, ts.URL+"/v1/estimate", badTarget, &e); code != http.StatusBadRequest || e.Code != "syntax_error" {
		t.Errorf("bad target: code %d, envelope %+v", code, e)
	}
	if _, ok := detailInt(e, "offset"); !ok {
		t.Errorf("bad target envelope carries no offset: %+v", e)
	}

	// Inline groups work too: persons are the 0-based global tuple ids,
	// and Pr(t[0]=flu) in a {flu×2, lung-cancer×2, mumps} bucket is 2/5.
	inline := map[string]any{
		"groups":  [][]string{{"flu", "flu", "lung-cancer", "lung-cancer", "mumps"}},
		"target":  "t[0]=flu",
		"samples": 20000,
		"seed":    1,
	}
	if code := postJSON(t, ts.URL+"/v1/estimate", inline, &est); code != http.StatusOK {
		t.Fatalf("inline estimate = %d", code)
	}
	if est.Prob < 0.35 || est.Prob > 0.45 {
		t.Errorf("inline estimate = %v, want ≈ 2/5", est.Prob)
	}
}

// TestGateSheds saturates the global concurrency gate and expects 503.
func TestGateSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, GateWait: time.Millisecond})
	registerHospital(t, ts.URL, "h")

	// Occupy the only slot from the outside.
	s.gate <- struct{}{}
	defer func() { <-s.gate }()

	var e errorBody
	code := postJSON(t, ts.URL+"/v1/disclosure", map[string]any{"dataset": "h", "k": 1}, &e)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated disclosure = %d (%s)", code, e.Error)
	}
	if !strings.Contains(e.Error, "saturated") {
		t.Errorf("error %q does not mention saturation", e.Error)
	}
}

// TestSearchWorkersConvention pins the library-wide worker convention on
// the server config: values below 1 (the zero value included) mean one
// lattice worker per CPU core, and explicit budgets pass through.
func TestSearchWorkersConvention(t *testing.T) {
	cases := []struct {
		cfg  int
		want int
	}{
		{0, runtime.GOMAXPROCS(0)},
		{-1, runtime.GOMAXPROCS(0)},
		{1, 1},
		{3, 3},
	}
	for _, c := range cases {
		s := New(Config{SearchWorkers: c.cfg})
		if err := s.Register("h", dataload.Hospital()); err != nil {
			t.Fatal(err)
		}
		ds, _ := s.registry.get("h")
		if got := ds.problem.Workers(); got != c.want {
			t.Errorf("SearchWorkers %d: problem runs %d workers, want %d", c.cfg, got, c.want)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		cancel()
	}
}

func TestMetricsShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerHospital(t, ts.URL, "h")
	postJSON(t, ts.URL+"/v1/disclosure", map[string]any{"dataset": "h", "k": 1}, nil)

	metrics := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		`ckprivacyd_requests_total{route="POST /v1/datasets",code="201"} 1`,
		`ckprivacyd_requests_total{route="POST /v1/disclosure",code="200"} 1`,
		`ckprivacyd_request_seconds_count{route="POST /v1/disclosure"} 1`,
		"ckprivacyd_engine_memo_hits_total",
		`ckprivacyd_dataset_cache_entries{dataset="h"} 1`,
		"ckprivacyd_datasets_registered 1",
		"ckprivacyd_jobs_queue_depth 0",
		"ckprivacyd_uptime_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestMetricsPlannerFamilies pins the sweep-planner and arena families: a
// completed anonymize job runs its lattice search as planned sweeps, so
// the dataset's planner counters and the process-wide arena pool counters
// must be live on /metrics.
func TestMetricsPlannerFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerHospital(t, ts.URL, "h")
	var acc anonymizeAccepted
	if code := postJSON(t, ts.URL+"/v1/anonymize",
		map[string]any{"dataset": "h", "criterion": "ck", "c": 0.7, "k": 1, "method": "minimal"},
		&acc); code != http.StatusAccepted {
		t.Fatalf("anonymize = %d", code)
	}
	if st := pollJob(t, ts.URL, acc.ID); st.State != JobDone {
		t.Fatalf("job = %+v", st)
	}

	metrics := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		`ckprivacyd_dataset_planned_sweeps_total{dataset="h"}`,
		`ckprivacyd_dataset_planned_nodes_total{dataset="h",path="base_scan"}`,
		`ckprivacyd_dataset_planned_nodes_total{dataset="h",path="coarsened"}`,
		`ckprivacyd_dataset_planned_nodes_total{dataset="h",path="reused"}`,
		`ckprivacyd_dataset_planned_buckets_total{dataset="h",kind="predicted"}`,
		`ckprivacyd_dataset_planned_buckets_total{dataset="h",kind="actual"}`,
		"ckprivacyd_arena_gets_total",
		"ckprivacyd_arena_reuses_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetrics(metrics, "planned"))
		}
	}
	// The job's search really went through the planner: the level-wise
	// search hands every frontier to it, so at least one sweep with one
	// base-scan root must have been counted.
	if v := metricValue(t, metrics, `ckprivacyd_dataset_planned_sweeps_total{dataset="h"}`); v == 0 {
		t.Errorf("planner recorded no sweeps after a minimal-anonymize job:\n%s", grepMetrics(metrics, "planned"))
	}
	if v := metricValue(t, metrics, `ckprivacyd_dataset_planned_nodes_total{dataset="h",path="base_scan"}`); v == 0 {
		t.Errorf("planner recorded no base scans:\n%s", grepMetrics(metrics, "planned"))
	}
}

// metricValue extracts one sample's value from exposition-format text.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s has unparsable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found:\n%s", name, metrics)
	return 0
}

// TestEstimateZeroAcceptance: a well-formed φ that no world satisfies must
// come back as 422 with the sample counts, not a bare 400 — clients need
// accepted/samples to tell "inconsistent knowledge" from "budget too
// small".
func TestEstimateZeroAcceptance(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// One bucket {flu, cold}: person 0 holds exactly one of the two values
	// in every world, so the implication pair below rejects all of them.
	req := map[string]any{
		"groups":  [][]string{{"flu", "cold"}},
		"target":  "t[0]=flu",
		"phi":     "t[0]=flu -> t[0]=cold; t[0]=cold -> t[0]=flu",
		"samples": 500,
		"seed":    1,
	}
	var e errorBody
	if code := postJSON(t, ts.URL+"/v1/estimate", req, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("estimate with unsatisfiable phi = %d, want 422 (%+v)", code, e)
	}
	if e.Code != "zero_acceptance" {
		t.Errorf("422 code = %q, want zero_acceptance", e.Code)
	}
	if acc, ok := detailInt(e, "accepted"); !ok || acc != 0 {
		t.Errorf("422 detail accepted = %v, want 0", e.Detail["accepted"])
	}
	if n, ok := detailInt(e, "samples"); !ok || n != 500 {
		t.Errorf("422 detail samples = %v, want 500", e.Detail["samples"])
	}
	if e.Error == "" {
		t.Error("422 body has no error message")
	}

	// A satisfiable φ on the same source still succeeds (the 422 path must
	// not swallow good requests).
	ok := map[string]any{
		"groups":  [][]string{{"flu", "cold"}},
		"target":  "t[0]=flu",
		"samples": 500,
		"seed":    1,
	}
	var est estimateResponse
	if code := postJSON(t, ts.URL+"/v1/estimate", ok, &est); code != http.StatusOK {
		t.Fatalf("satisfiable estimate = %d", code)
	}
	if est.Accepted == 0 {
		t.Error("satisfiable estimate accepted no worlds")
	}
}

// TestDatasetRequestsShareOneEngine: every request on a registered dataset
// — disclosure, check, anonymize job and release audit — runs on that
// dataset's own engine and over its cached buckets, so each warms the
// next; inline traffic never touches a dataset's engine.
func TestDatasetRequestsShareOneEngine(t *testing.T) {
	s, ts := newTestServer(t, Config{SearchWorkers: 1})
	registerHospital(t, ts.URL, "h")
	ds, _ := s.registry.get("h")
	eng := ds.problem.Engine()

	// The disclosure asks the cross-bucket variant, so the node's published
	// series answers no later default-variant call: the check and the
	// release audit below reach the engine.
	if code := postJSON(t, ts.URL+"/v1/disclosure", map[string]any{"dataset": "h", "k": 1, "cross_bucket": true}, nil); code != http.StatusOK {
		t.Fatalf("disclosure = %d", code)
	}
	cold := eng.Stats()
	if cold.Misses == 0 {
		t.Fatalf("disclosure on a registered dataset missed its engine: %+v", cold)
	}
	// A check at the same levels and k needs exactly the rows the
	// disclosure memoized: both variants read u[0..k+1] per histogram.
	if code := postJSON(t, ts.URL+"/v1/check",
		map[string]any{"dataset": "h", "criterion": "ck", "c": 0.9, "k": 1}, nil); code != http.StatusOK {
		t.Fatalf("check = %d", code)
	}
	warm := eng.Stats()
	if warm.Hits <= cold.Hits || warm.Misses != cold.Misses {
		t.Errorf("check after disclosure did not run warm on the dataset engine: %+v -> %+v", cold, warm)
	}

	var acc anonymizeAccepted
	if code := postJSON(t, ts.URL+"/v1/anonymize",
		map[string]any{"dataset": "h", "criterion": "ck", "c": 0.7, "k": 1, "method": "minimal"}, &acc); code != http.StatusAccepted {
		t.Fatalf("anonymize = %d", code)
	}
	if st := pollJob(t, ts.URL, acc.ID); st.State != JobDone {
		t.Fatalf("job = %+v", st)
	}
	job := eng.Stats()
	if job.Hits <= warm.Hits {
		t.Errorf("anonymize job did not hit the dataset engine warmed by disclosure: %+v -> %+v", warm, job)
	}

	// The job's complete (c,k) checks published their nodes' series at
	// k = 1, so the audit asks k = 2, which no series covers: its rows
	// grow, and the lookups land on the dataset engine as misses.
	createReleaseOK(t, ts.URL, "h")
	if code := getJSON(t, ts.URL+"/v1/datasets/h/releases?k=2", nil); code != http.StatusOK {
		t.Fatalf("audit = %d", code)
	}
	audit := eng.Stats()
	if audit.Hits+audit.Misses <= job.Hits+job.Misses {
		t.Errorf("release audit did not land on the dataset engine: %+v -> %+v", job, audit)
	}
	if code := postJSON(t, ts.URL+"/v1/disclosure",
		map[string]any{"groups": [][]string{{"a", "a", "b", "c"}, {"a", "b", "b"}}, "k": 2}, nil); code != http.StatusOK {
		t.Fatalf("inline disclosure = %d", code)
	}
	if inline := eng.Stats(); inline != audit {
		t.Errorf("inline traffic reached the dataset engine: %+v -> %+v", audit, inline)
	}
}

// TestMetricsMemoFamilies pins the engine row counters: the datasets'
// engines' hits and misses are exported (a dataset disclosure builds
// rows, so misses are positive), and no family reports a memo size,
// entry count or eviction, since rows live on the buckets.
func TestMetricsMemoFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerHospital(t, ts.URL, "h")
	postJSON(t, ts.URL+"/v1/disclosure", map[string]any{"dataset": "h", "k": 1}, nil)
	postJSON(t, ts.URL+"/v1/disclosure", map[string]any{"groups": [][]string{{"x", "y"}}, "k": 1}, nil)

	metrics := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		"ckprivacyd_engine_memo_hits_total ",
		"ckprivacyd_engine_memo_misses_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetrics(metrics, "memo"))
		}
	}
	if strings.Contains(metrics, "ckprivacyd_engine_memo_misses_total 0\n") {
		t.Errorf("no row built after a dataset disclosure:\n%s", grepMetrics(metrics, "memo"))
	}
	for _, gone := range []string{
		"ckprivacyd_engine_memo_entries",
		"ckprivacyd_engine_memo_bytes",
		"ckprivacyd_engine_memo_evictions_total",
		"ckprivacyd_dataset_memo_bytes",
	} {
		if strings.Contains(metrics, gone) {
			t.Errorf("metrics still export %s:\n%s", gone, grepMetrics(metrics, "memo"))
		}
	}
}

// TestWarmReadsLeaveEngineUntouched: a disclosure at k publishes its
// node's disclosure series, so warm disclosures and checks at any k' <= k
// on that node — the bottom node of a 2,000-row synthetic Adult table,
// hundreds of buckets — answer from it: the dataset engine's counters do
// not move, and every answer equals a fresh bucketization's.
func TestWarmReadsLeaveEngineUntouched(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if code := postJSON(t, ts.URL+"/v1/datasets",
		map[string]any{"name": "a", "synthetic": map[string]any{"n": 2000, "seed": 1}}, nil); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	ds, _ := s.registry.get("a")
	eng := ds.problem.Engine()
	levels := map[string]int{}
	for _, name := range ds.problem.QI {
		levels[name] = 0
	}
	const maxK = 3
	if code := postJSON(t, ts.URL+"/v1/disclosure", map[string]any{"dataset": "a", "levels": levels, "k": maxK}, nil); code != http.StatusOK {
		t.Fatalf("cold disclosure = %d", code)
	}
	bz, err := ds.problem.Bucketize(ds.problem.Space().Bottom())
	if err != nil {
		t.Fatal(err)
	}
	if len(bz.Buckets) < 100 {
		t.Fatalf("bottom node has %d buckets; the test wants a large node", len(bz.Buckets))
	}
	before := eng.Stats()
	for k := 0; k <= maxK; k++ {
		want, err := core.NewEngine().MaxDisclosure(&bucket.Bucketization{Buckets: bz.Buckets}, k)
		if err != nil {
			t.Fatal(err)
		}
		var got disclosureResponse
		if code := postJSON(t, ts.URL+"/v1/disclosure", map[string]any{"dataset": "a", "levels": levels, "k": k}, &got); code != http.StatusOK {
			t.Fatalf("warm disclosure k=%d = %d", k, code)
		}
		if got.Disclosure != want || got.Tuples != 2000 || got.Buckets != len(bz.Buckets) {
			t.Errorf("warm disclosure k=%d: %+v, want disclosure %v over 2000 tuples", k, got, want)
		}
		for _, c := range []float64{want, math.Nextafter(want, 1)} {
			var chk checkResponse
			if code := postJSON(t, ts.URL+"/v1/check",
				map[string]any{"dataset": "a", "levels": levels, "criterion": "ck", "c": c, "k": k}, &chk); code != http.StatusOK {
				t.Fatalf("warm check k=%d = %d", k, code)
			}
			if chk.Safe != (want < c) {
				t.Errorf("warm check k=%d c=%v: safe %v, disclosure %v", k, c, chk.Safe, want)
			}
		}
	}
	if after := eng.Stats(); after != before {
		t.Errorf("warm reads reached the engine: %+v -> %+v", before, after)
	}
}

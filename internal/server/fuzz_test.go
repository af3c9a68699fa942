package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataload"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/logic"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/worlds"
)

// FuzzReadRequests sends arbitrary bodies to the two read routes,
// /v1/disclosure and /v1/check, through the real mux (Server.Handler) of a
// server holding the hospital dataset. Bodies are capped at 512 bytes and
// k at 4, so one exec stays well under a millisecond. The invariants: no
// panic and no 5xx; every non-200 body is the JSON error envelope with a
// non-empty code; and a 200 disclosure on inline groups equals
// core.NewEngine().MaxDisclosureOpt on the same groups bit for bit.
func FuzzReadRequests(f *testing.F) {
	const maxBody = 512
	s := New(Config{MaxK: 4, MaxBodyBytes: maxBody})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.Handler()
	register := httptest.NewRecorder()
	h.ServeHTTP(register, httptest.NewRequest(http.MethodPost, "/v1/datasets",
		bytes.NewReader([]byte(`{"name":"h","builtin":"hospital"}`))))
	if register.Code != http.StatusCreated {
		f.Fatalf("register hospital = %d: %s", register.Code, register.Body)
	}

	for _, seed := range []struct {
		check bool
		body  string
	}{
		{false, `{"dataset":"h","k":2}`},
		{false, `{"dataset":"h","levels":{"Zip":1,"Age":1},"k":1,"witness":true,"negation":true}`},
		{false, `{"groups":[["flu","flu","lung"],["flu","mumps"]],"k":3,"cross_bucket":true}`},
		{false, `{"groups":[["a"],[]],"k":1}`},
		{false, `{"dataset":"nope","k":1}`},
		{false, `{"k":`},
		{true, `{"dataset":"h","criterion":"ck","c":0.7,"k":2}`},
		{true, `{"groups":[["a","b"],["a","a","c"]],"criterion":"entropy-l","l":2}`},
		{true, `{"groups":[["a","b","c"]],"criterion":"recursive-cl","c":2,"l":2}`},
		{true, `{"dataset":"h","criterion":"k-anonymity","k":9,"extra":1}`},
	} {
		f.Add(seed.check, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, check bool, body []byte) {
		if len(body) > maxBody {
			return
		}
		path := "/v1/disclosure"
		if check {
			path = "/v1/check"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code == "" || e.Error == "" {
				t.Fatalf("%s %q: status %d body %q is not an error envelope (%v)", path, body, rec.Code, rec.Body, err)
			}
			return
		}
		if check {
			return
		}
		var req disclosureRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%q answered 200 but does not decode: %v", body, err)
		}
		if len(req.Groups) == 0 {
			return
		}
		var resp disclosureResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%q: response %q: %v", body, rec.Body, err)
		}
		opt := core.Options{ForbidSameBucketAntecedent: req.CrossBucket}
		want, err := core.NewEngine().MaxDisclosureOpt(bucket.FromValues(req.Groups...), req.K, opt)
		if err != nil || math.Float64bits(resp.Disclosure) != math.Float64bits(want) {
			t.Fatalf("%q: disclosure %v, library %v (%v)", body, resp.Disclosure, want, err)
		}
	})
}

// FuzzAppendRequests sends arbitrary bodies of up to 512 bytes to
// POST /v1/datasets/h/rows through the real mux (Server.Handler). Every
// exec starts from a new server holding a freshly registered 10-row
// hospital dataset, so rows never pile up across execs. The invariants:
// no panic and no 5xx; a non-200 body is the JSON error envelope with a
// non-empty code and error, and leaves the dataset's version and row
// count unchanged; a 200 reports version 2, start 10, appended equal to
// the number of rows sent and rows = 10 + appended, after which a
// /v1/disclosure at the default levels counts that many tuples.
func FuzzAppendRequests(f *testing.F) {
	const maxBody = 512
	for _, seed := range []string{
		`{"rows":[["14850","26","M","flu"]]}`,
		`{"rows":[["14850","26","M"]]}`,
		`{"rows":[["14850","500","M","flu"]]}`,
		`{"rows":[]}`,
		`{"rows":[["14850","26"`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxBody {
			return
		}
		s := New(Config{MaxBodyBytes: maxBody})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		}()
		h := s.Handler()
		serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec
		}
		if rec := serve(http.MethodPost, "/v1/datasets", []byte(`{"name":"h","builtin":"hospital"}`)); rec.Code != http.StatusCreated {
			t.Fatalf("register hospital = %d: %s", rec.Code, rec.Body)
		}

		rec := serve(http.MethodPost, "/v1/datasets/h/rows", body)
		if rec.Code >= 500 {
			t.Fatalf("append %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code == "" || e.Error == "" {
				t.Fatalf("append %q: status %d body %q is not an error envelope (%v)", body, rec.Code, rec.Body, err)
			}
			info := serve(http.MethodGet, "/v1/datasets/h", nil)
			var ds datasetInfo
			if err := json.Unmarshal(info.Body.Bytes(), &ds); err != nil || info.Code != http.StatusOK {
				t.Fatalf("append %q: dataset info %d %q (%v)", body, info.Code, info.Body, err)
			}
			if ds.Version != 1 || ds.Rows != 10 {
				t.Fatalf("rejected append %q left version %d, %d rows; want 1, 10", body, ds.Version, ds.Rows)
			}
			return
		}

		var req appendRowsRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%q answered 200 but does not decode: %v", body, err)
		}
		var resp appendRowsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("append %q: response %q: %v", body, rec.Body, err)
		}
		if resp.Version != 2 || resp.Start != 10 || resp.Appended != len(req.Rows) || resp.Rows != 10+resp.Appended {
			t.Fatalf("append %q of %d rows: version %d, start %d, appended %d, rows %d", body, len(req.Rows),
				resp.Version, resp.Start, resp.Appended, resp.Rows)
		}
		disc := serve(http.MethodPost, "/v1/disclosure", []byte(`{"dataset":"h","k":1}`))
		var d disclosureResponse
		if err := json.Unmarshal(disc.Body.Bytes(), &d); err != nil || disc.Code != http.StatusOK {
			t.Fatalf("disclosure after append %q: %d %q (%v)", body, disc.Code, disc.Body, err)
		}
		if d.Tuples != resp.Rows {
			t.Fatalf("disclosure after append %q counts %d tuples, want %d", body, d.Tuples, resp.Rows)
		}
	})
}

// FuzzEstimateRequests sends arbitrary bodies of up to 512 bytes to
// /v1/estimate through the real mux (Server.Handler) of a server holding
// the hospital dataset. Bodies that ask for more than 5,000 samples, or
// that omit samples (it defaults to 100,000), are skipped, so one exec
// stays cheap. The invariants: no panic and no 5xx; every non-200 body is
// the JSON error envelope with a non-empty code; every 200 reports
// accepted ≤ samples and a probability in [0, 1]; and a 200 on inline
// groups equals worlds.FromBucketization(...).EstimateCondProb on the same
// groups with the same seed and worker count.
func FuzzEstimateRequests(f *testing.F) {
	const (
		maxBody    = 512
		maxSamples = 5000
	)
	s := New(Config{MaxBodyBytes: maxBody})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.Handler()
	register := httptest.NewRecorder()
	h.ServeHTTP(register, httptest.NewRequest(http.MethodPost, "/v1/datasets",
		bytes.NewReader([]byte(`{"name":"h","builtin":"hospital"}`))))
	if register.Code != http.StatusCreated {
		f.Fatalf("register hospital = %d: %s", register.Code, register.Body)
	}

	for _, seed := range []string{
		`{"dataset":"h","target":"t[Ed]=lung-cancer","phi":"t[Ed]=mumps -> t[Ed]=flu","samples":2000,"seed":7}`,
		`{"dataset":"h","levels":{"Zip":1},"target":"t[Ed]=flu","samples":500}`,
		`{"groups":[["flu","flu","lung"],["flu","mumps"]],"target":"t[0]=flu","phi":"t[3]=mumps -> t[1]=flu","samples":1000,"seed":3}`,
		`{"groups":[["a","b"]],"target":"t[0]=a","phi":"t[0]=a -> t[0]=b; t[0]=b -> t[0]=a","samples":100}`,
		`{"groups":[["a"],[]],"target":"t[0]=a","samples":10}`,
		`{"dataset":"h","target":"t[Ed]=","samples":10}`,
		`{"dataset":"nope","target":"t[0]=flu","samples":10}`,
		`{"target":"t[0]=flu","samples":`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxBody {
			return
		}
		var req estimateRequest
		decodeErr := json.Unmarshal(body, &req)
		if decodeErr == nil && (req.Samples <= 0 || req.Samples > maxSamples) {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("estimate %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code == "" || e.Error == "" {
				t.Fatalf("estimate %q: status %d body %q is not an error envelope (%v)", body, rec.Code, rec.Body, err)
			}
			return
		}
		if decodeErr != nil {
			t.Fatalf("%q answered 200 but does not decode: %v", body, decodeErr)
		}
		var resp estimateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("estimate %q: response %q: %v", body, rec.Body, err)
		}
		if resp.Accepted > resp.Samples || !(resp.Prob >= 0 && resp.Prob <= 1) {
			t.Fatalf("estimate %q: accepted %d of %d samples, prob %v", body, resp.Accepted, resp.Samples, resp.Prob)
		}
		if len(req.Groups) == 0 {
			return
		}
		target, err := logic.ParseAtom(req.Target)
		if err != nil {
			t.Fatalf("%q answered 200 but its target does not parse: %v", body, err)
		}
		phi, err := logic.ParseConjunction(req.Phi)
		if err != nil {
			t.Fatalf("%q answered 200 but its phi does not parse: %v", body, err)
		}
		in, err := worlds.FromBucketization(bucket.FromValues(req.Groups...), nil)
		if err != nil {
			t.Fatalf("%q answered 200 but its groups do not build: %v", body, err)
		}
		want, err := in.EstimateCondProb(target, phi, req.Samples, s.cfg.SearchWorkers, req.Seed)
		if err != nil {
			t.Fatalf("%q answered 200 but the library fails: %v", body, err)
		}
		if math.Float64bits(resp.Prob) != math.Float64bits(want.Prob) ||
			math.Float64bits(resp.StdErr) != math.Float64bits(want.StdErr) ||
			resp.Accepted != want.Accepted || resp.Samples != want.Samples {
			t.Fatalf("%q: estimate %+v, library %+v", body, resp, want)
		}
	})
}

// FuzzRegisterDataset sends arbitrary bodies of up to 2 KiB to
// POST /v1/datasets through the real mux (Server.Handler). Every exec
// starts from a new server with a 200-row limit, so datasets never pile
// up across execs. Bodies that name the built-in adult bundle are
// skipped: it generates all 45,222 rows before the row limit rejects
// them. The invariants: no panic and no 5xx; every non-201 body is the
// JSON error envelope with a non-empty code; and every dataset that got a
// 201 answers /v1/disclosure at k = 1 with a 200 and a disclosure in
// [0, 1].
func FuzzRegisterDataset(f *testing.F) {
	const maxBody = 2048
	adultCSV := new(strings.Builder)
	adultRows, err := dataload.Adult("", 3, 1)
	if err != nil {
		f.Fatal(err)
	}
	if err := adultRows.Table.WriteCSV(adultCSV); err != nil {
		f.Fatal(err)
	}
	csvBody, err := json.Marshal(map[string]string{"name": "a", "adult_csv": adultCSV.String()})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{"name":"mini","spec":{"attributes":[{"name":"Zip","kind":"numeric","min":0,"max":99999},` +
			`{"name":"Illness","kind":"categorical","domain":["flu","cold"]}],"sensitive":"Illness",` +
			`"hierarchies":[{"attribute":"Zip","kind":"interval","widths":[1,10,0]}],` +
			`"csv":"Zip,Illness\n14850,flu\n14851,cold\n14852,flu\n14853,cold\n"}}`,
		`{"name":"h","builtin":"hospital"}`,
		`{"name":"s","synthetic":{"n":150,"seed":7}}`,
		string(csvBody),
		`{"name":"s","synthetic":{"n":201}}`,
		`{"name":"x","builtin":"hospital","synthetic":{"n":10}}`,
		`{"name":"`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxBody {
			return
		}
		var req registerDatasetRequest
		if json.Unmarshal(body, &req) == nil && strings.EqualFold(req.Builtin, "adult") {
			return
		}
		s := New(Config{MaxBodyBytes: maxBody, MaxRows: 200})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		}()
		h := s.Handler()
		serve := func(path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rec
		}
		rec := serve("/v1/datasets", body)
		if rec.Code >= 500 {
			t.Fatalf("register %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusCreated {
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code == "" {
				t.Fatalf("register %q: status %d body %q is not an error envelope (%v)", body, rec.Code, rec.Body, err)
			}
			return
		}
		var info datasetInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatalf("register %q: response %q: %v", body, rec.Body, err)
		}
		read, err := json.Marshal(map[string]any{"dataset": info.Name, "k": 1})
		if err != nil {
			t.Fatal(err)
		}
		disc := serve("/v1/disclosure", read)
		var d disclosureResponse
		if err := json.Unmarshal(disc.Body.Bytes(), &d); err != nil || disc.Code != http.StatusOK {
			t.Fatalf("register %q: disclosure on %q: %d %q (%v)", body, info.Name, disc.Code, disc.Body, err)
		}
		if !(d.Disclosure >= 0 && d.Disclosure <= 1) {
			t.Fatalf("register %q: disclosure %v outside [0, 1]", body, d.Disclosure)
		}
	})
}

// FuzzAnonymizeRequests sends arbitrary bodies of up to 512 bytes to
// POST /v1/anonymize through the real mux (Server.Handler) of a server
// holding the hospital dataset, then polls GET /v1/jobs/{id}, sending
// DELETE /v1/jobs/{id} first when cancel is set. The invariants: no
// panic; every non-2xx body is the JSON error envelope with a non-empty
// code; the only 5xx is the 503 "overloaded" envelope of a full job
// queue; a 202's job reaches done, failed or cancelled within 10 s, and
// ends cancelled only when the input cancelled it; and a done job's nodes
// equal the library search with the same method and criterion on the
// same data.
func FuzzAnonymizeRequests(f *testing.F) {
	const (
		maxBody = 512
		settle  = 10 * time.Second
	)
	s := New(Config{MaxBodyBytes: maxBody})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	if rec := serve(http.MethodPost, "/v1/datasets", []byte(`{"name":"h","builtin":"hospital"}`)); rec.Code != http.StatusCreated {
		f.Fatalf("register hospital = %d: %s", rec.Code, rec.Body)
	}
	b := dataload.Hospital()
	lib, err := anonymize.NewProblem(b.Table, b.Hierarchies, b.QI)
	if err != nil {
		f.Fatal(err)
	}

	for _, seed := range []struct {
		cancel bool
		body   string
	}{
		{false, `{"dataset":"h","criterion":"ck","c":0.7,"k":1,"method":"minimal"}`},
		{true, `{"dataset":"h","c":0.9,"k":2}`},
		{false, `{"dataset":"h","criterion":"negation-ck","c":0.8,"k":2,"method":"chain"}`},
		{false, `{"dataset":"h","criterion":"k-anonymity","k":3,"method":"chain","utility":"avg"}`},
		{false, `{"dataset":"h","criterion":"entropy-l","l":2,"utility":"none"}`},
		{true, `{"dataset":"h","criterion":"recursive-cl","c":2,"l":2,"method":"minimal","utility":"buckets"}`},
		{false, `{"dataset":"h","criterion":"distinct-l","l":9}`},
		{false, `{"criterion":"ck","c":0.7,"k":1}`},
		{false, `{"dataset":"nope","c":0.7,"k":1}`},
		{false, `{"dataset":"h","c":0.7,"k":1,"method":"bogus"}`},
		{false, `{"dataset":"h","c":0.7,"k":`},
	} {
		f.Add(seed.cancel, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, cancel bool, body []byte) {
		if len(body) > maxBody {
			return
		}
		// envelope checks a response that is not 2xx.
		envelope := func(what string, rec *httptest.ResponseRecorder) {
			t.Helper()
			if rec.Code/100 == 2 {
				return
			}
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code == "" || e.Error == "" {
				t.Fatalf("%s %q: status %d body %q is not an error envelope (%v)", what, body, rec.Code, rec.Body, err)
			}
			if rec.Code >= 500 && (rec.Code != http.StatusServiceUnavailable || e.Code != "overloaded") {
				t.Fatalf("%s %q: status %d code %q: %s", what, body, rec.Code, e.Code, rec.Body)
			}
		}
		rec := serve(http.MethodPost, "/v1/anonymize", body)
		envelope("anonymize", rec)
		if rec.Code != http.StatusAccepted {
			return
		}
		var acc anonymizeAccepted
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil || acc.ID == "" || acc.Poll != "/v1/jobs/"+acc.ID {
			t.Fatalf("anonymize %q: accepted body %q (%v)", body, rec.Body, err)
		}
		if cancel {
			del := serve(http.MethodDelete, acc.Poll, nil)
			envelope("cancel", del)
			if del.Code != http.StatusOK {
				t.Fatalf("cancel %s of %q = %d: %s", acc.ID, body, del.Code, del.Body)
			}
		}
		var st jobStatus
		for deadline := time.Now().Add(settle); ; time.Sleep(time.Millisecond) {
			get := serve(http.MethodGet, acc.Poll, nil)
			envelope("poll", get)
			if get.Code != http.StatusOK {
				t.Fatalf("poll %s of %q = %d: %s", acc.ID, body, get.Code, get.Body)
			}
			if err := json.Unmarshal(get.Body.Bytes(), &st); err != nil {
				t.Fatalf("poll %s of %q: %q: %v", acc.ID, body, get.Body, err)
			}
			if st.State == JobDone || st.State == JobFailed || st.State == JobCancelled {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s of %q still %q after %v", acc.ID, body, st.State, settle)
			}
		}
		if st.State == JobCancelled && !cancel {
			t.Fatalf("job %s of %q was cancelled, but nothing cancelled it", acc.ID, body)
		}
		if st.State != JobDone {
			return
		}
		var req anonymizeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%q was accepted but does not decode: %v", body, err)
		}
		want, err := librarySearch(lib, req)
		if err != nil {
			t.Fatalf("%q: job done, library search failed: %v", body, err)
		}
		if st.Result == nil || !slices.EqualFunc(st.Result.Nodes, want, func(got []int, want lattice.Node) bool {
			return slices.Equal(got, []int(want))
		}) {
			t.Fatalf("%q: job result %+v, library nodes %v", body, st.Result, want)
		}
	})
}

// librarySearch runs the lattice search an anonymize request asks for on
// p, building its criterion directly from the privacy package, so the
// fuzzer compares the job route against code it does not share.
func librarySearch(p *anonymize.Problem, req anonymizeRequest) ([]lattice.Node, error) {
	var crit privacy.Criterion
	switch req.Criterion {
	case "", "ck":
		crit = privacy.CKSafety{C: req.C, K: req.K, Engine: core.NewEngine()}
	case "negation-ck":
		crit = privacy.NegationCKSafety{C: req.C, K: req.K}
	case "k-anonymity":
		crit = privacy.KAnonymity{K: req.K}
	case "distinct-l":
		crit = privacy.DistinctLDiversity{L: req.L}
	case "entropy-l":
		crit = privacy.EntropyLDiversity{L: req.L}
	case "recursive-cl":
		crit = privacy.RecursiveCLDiversity{C: req.C, L: req.L}
	default:
		return nil, fmt.Errorf("criterion %q", req.Criterion)
	}
	switch req.Method {
	case "minimal":
		nodes, _, err := p.MinimalSafe(crit)
		return nodes, err
	case "", "incognito":
		nodes, _, err := p.MinimalSafeIncognito(crit)
		return nodes, err
	case "chain":
		node, ok, _, err := p.ChainSearch(crit)
		if !ok {
			return nil, err
		}
		return []lattice.Node{node}, err
	default:
		return nil, fmt.Errorf("method %q", req.Method)
	}
}

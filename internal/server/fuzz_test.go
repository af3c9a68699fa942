package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
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

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServerDisclosure measures end-to-end request throughput against
// an httptest server: JSON decode, registry lookup, bucketization, the
// O(|B|·k³) DP and JSON encode. The cold variant resets the warm state
// every iteration (a fresh bucketization cache, whose buckets hold no
// rows); the warm variant reuses the dataset's warm caches, which is the
// steady state a resident ckprivacyd actually serves. CI's short-mode bench job archives
// both in the BENCH_*.json artifact.
func BenchmarkServerDisclosure(b *testing.B) {
	body, err := json.Marshal(map[string]any{"dataset": "adult", "k": 3})
	if err != nil {
		b.Fatal(err)
	}

	post := func(b *testing.B, ts *httptest.Server) {
		b.Helper()
		resp, err := http.Post(ts.URL+"/v1/disclosure", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("disclosure = %d", resp.StatusCode)
		}
	}
	// 2000 synthetic Adult rows keep one cold iteration in the tens of
	// milliseconds while still exercising a realistic histogram mix.
	register := func(b *testing.B) *httptest.Server {
		b.Helper()
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		reg, err := json.Marshal(map[string]any{
			"name": "adult", "synthetic": map[string]any{"n": 2000, "seed": 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewReader(reg))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("register = %d", resp.StatusCode)
		}
		return ts
	}

	b.Run("cold", func(b *testing.B) {
		ts := register(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Drop all warm state by rebuilding the whole server (fresh
			// bucketization cache and rows) outside the timer.
			b.StopTimer()
			ts.Close()
			ts = register(b)
			b.StartTimer()
			post(b, ts)
		}
		ts.Close()
	})

	b.Run("warm", func(b *testing.B) {
		ts := register(b)
		defer ts.Close()
		post(b, ts) // prime the caches
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts)
		}
	})
}

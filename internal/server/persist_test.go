package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"ckprivacy/internal/store"
)

// persistedState is everything a client can observe about a dataset that
// must survive a crash: its description, a disclosure answer and the full
// sequential-release audit. Timing and cache fields are stripped; the
// rest must be byte-identical (compared as decoded JSON) between the
// pre-crash process and the recovered one.
type persistedState struct {
	info     map[string]any
	disc     map[string]any
	releases map[string]any
}

func captureDatasetState(t *testing.T, base, name string) persistedState {
	t.Helper()
	var st persistedState
	if code := getJSON(t, base+"/v1/datasets/"+name, &st.info); code != http.StatusOK {
		t.Fatalf("describe %s = %d", name, code)
	}
	delete(st.info, "cache_entries")
	delete(st.info, "recovered")
	delete(st.info, "wal_records")
	if code := postJSON(t, base+"/v1/disclosure", map[string]any{"dataset": name, "k": 2}, &st.disc); code != http.StatusOK {
		t.Fatalf("disclosure = %d", code)
	}
	delete(st.disc, "elapsed_ms")
	if code := getJSON(t, base+"/v1/datasets/"+name+"/releases?k=1", &st.releases); code != http.StatusOK {
		t.Fatalf("releases audit = %d", code)
	}
	delete(st.releases, "elapsed_ms")
	return st
}

func requireSameState(t *testing.T, want, got persistedState) {
	t.Helper()
	for _, cmp := range []struct {
		label     string
		want, got map[string]any
	}{
		{"dataset info", want.info, got.info},
		{"disclosure", want.disc, got.disc},
		{"releases audit", want.releases, got.releases},
	} {
		if !reflect.DeepEqual(cmp.want, cmp.got) {
			w, _ := json.Marshal(cmp.want)
			g, _ := json.Marshal(cmp.got)
			t.Fatalf("%s diverged after recovery:\nwant %s\ngot  %s", cmp.label, w, g)
		}
	}
}

// newPersistedServer builds a server persisting to dir.
func newPersistedServer(t *testing.T, dir string, fsync bool) (*Server, string) {
	t.Helper()
	mgr, err := store.Open(store.Options{Dir: dir, Fsync: fsync, CompactBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Store: mgr})
	return s, ts.URL
}

// TestPersistKillPointRecovery is the randomized crash-point property
// test: a persisted dataset takes a scripted sequence of appends and
// releases, the WAL is then cut at arbitrary byte offsets — including
// mid-record and mid-header — and a fresh server recovering from each cut
// must serve exactly the state the original server had after the last
// record that survived the cut.
func TestPersistKillPointRecovery(t *testing.T) {
	dir := t.TempDir()
	_, base := newPersistedServer(t, dir, true)
	registerHospital(t, base, "h")

	// expected[i] is the observable state after i WAL records.
	expected := []persistedState{captureDatasetState(t, base, "h")}
	mutate := []func(){
		func() { appendRowsOK(t, base, "h", hospitalRows()) },
		func() { createReleaseOK(t, base, "h") },
		func() {
			appendRowsOK(t, base, "h", [][]string{{"14852", "61", "F", "flu"}, {"14861", "35", "M", "mumps"}})
		},
		func() { createReleaseOK(t, base, "h") },
		func() { appendRowsOK(t, base, "h", [][]string{{"14870", "44", "F", "heart-disease"}}) },
		func() { createReleaseOK(t, base, "h") },
	}
	for _, m := range mutate {
		m()
		expected = append(expected, captureDatasetState(t, base, "h"))
	}

	walPath := findOne(t, filepath.Join(dir, "h", "wal-*.ckpw"))
	snapPath := findOne(t, filepath.Join(dir, "h", "snapshot-*.ckps"))
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	cuts := []int{0, 5, len(wal)} // empty file, torn header, clean kill
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		cuts = append(cuts, rng.Intn(len(wal)+1))
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			trial := t.TempDir()
			if err := os.MkdirAll(filepath.Join(trial, "h"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(trial, "h", filepath.Base(snapPath)), snap, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(trial, "h", filepath.Base(walPath)), wal[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			mgr, err := store.Open(store.Options{Dir: trial, Fsync: false})
			if err != nil {
				t.Fatal(err)
			}
			s2, ts2 := newTestServer(t, Config{Store: mgr})
			stats, err := s2.RecoverAll()
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if stats.Datasets != 1 {
				t.Fatalf("recovered %d datasets, want 1", stats.Datasets)
			}
			var info struct {
				WALRecords int    `json:"wal_records"`
				Recovered  string `json:"recovered"`
			}
			if code := getJSON(t, ts2.URL+"/v1/datasets/h", &info); code != http.StatusOK {
				t.Fatalf("describe = %d", code)
			}
			if info.WALRecords >= len(expected) {
				t.Fatalf("recovered %d wal records, only %d mutations ran", info.WALRecords, len(expected)-1)
			}
			wantMode := "snapshot"
			if info.WALRecords > 0 {
				wantMode = "wal_replay"
			}
			if info.Recovered != wantMode {
				t.Fatalf("recovered mode %q, want %q (%d records)", info.Recovered, wantMode, info.WALRecords)
			}
			requireSameState(t, expected[info.WALRecords], captureDatasetState(t, ts2.URL, "h"))
		})
	}
}

// TestPersistCleanRestartIdentical drives the happy path: no crash, just
// a second server recovering the full snapshot + WAL, which must be
// indistinguishable from the first.
func TestPersistCleanRestartIdentical(t *testing.T) {
	dir := t.TempDir()
	_, base := newPersistedServer(t, dir, false)
	registerHospital(t, base, "h")
	appendRowsOK(t, base, "h", hospitalRows())
	createReleaseOK(t, base, "h")
	want := captureDatasetState(t, base, "h")

	s2, base2 := newPersistedServer(t, dir, false)
	if _, err := s2.RecoverAll(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	requireSameState(t, want, captureDatasetState(t, base2, "h"))
}

// TestRecoverRejectsReleaseIndexGap: boot replay holds a WAL release
// record to the rule ApplyReplicated enforces — it must carry exactly the
// next release index — so a log that skips one fails recovery with an
// error naming the index instead of restoring a history a follower of the
// same log would reject as diverged.
func TestRecoverRejectsReleaseIndexGap(t *testing.T) {
	dir := t.TempDir()
	s, base := newPersistedServer(t, dir, false)
	registerHospital(t, base, "h")
	createReleaseOK(t, base, "h")
	ds, _ := s.registry.get("h")
	rel, _ := ds.releases.snapshot()
	rec := releaseToRecord(rel[0])
	rec.Index = 5 // the log expects index 1 next
	if err := ds.persist.log.LogRelease(&rec); err != nil {
		t.Fatal(err)
	}

	s2, _ := newPersistedServer(t, dir, false)
	if _, err := s2.RecoverAll(); err == nil || !strings.Contains(err.Error(), "index 5") {
		t.Fatalf("recovery over a release index gap = %v, want an error naming index 5", err)
	}
}

// TestPersistFailure503AndHeal covers the write path when the store
// breaks: mutations still apply in memory but the response is a 503 with
// the persist_failed code and a Retry-After, and the next write heals by
// compacting — after which a recovery sees everything, the "lost" records
// included.
func TestPersistFailure503AndHeal(t *testing.T) {
	dir := t.TempDir()
	s, base := newPersistedServer(t, dir, false)
	registerHospital(t, base, "h")
	ds, ok := s.registry.get("h")
	if !ok || ds.persist == nil {
		t.Fatal("hospital did not register persisted")
	}

	// Break the log the way a dead disk would: every write now fails.
	if err := ds.persist.log.Close(); err != nil {
		t.Fatal(err)
	}
	resp := rawPost(t, base+"/v1/datasets/h/rows", map[string]any{"rows": hospitalRows()})
	if resp.status != http.StatusServiceUnavailable || resp.body.Code != "persist_failed" {
		t.Fatalf("append on broken store = %d/%s, want 503/persist_failed", resp.status, resp.body.Code)
	}
	if resp.retryAfter == "" {
		t.Fatal("503 persist_failed without Retry-After")
	}
	var info struct {
		Rows int `json:"rows"`
	}
	getJSON(t, base+"/v1/datasets/h", &info)
	if info.Rows != 13 {
		t.Fatalf("rows after failed-persist append = %d, want 13 (applied in memory)", info.Rows)
	}

	// Next write heals by compaction and succeeds.
	if code := postJSON(t, base+"/v1/datasets/h/rows",
		map[string]any{"rows": [][]string{{"14870", "44", "F", "flu"}}}, nil); code != http.StatusOK {
		t.Fatalf("append after heal = %d", code)
	}

	// Same failure mode on the release path.
	if err := ds.persist.log.Close(); err != nil {
		t.Fatal(err)
	}
	resp = rawPost(t, base+"/v1/datasets/h/releases", map[string]any{})
	if resp.status != http.StatusServiceUnavailable || resp.body.Code != "persist_failed" {
		t.Fatalf("release on broken store = %d/%s, want 503/persist_failed", resp.status, resp.body.Code)
	}
	createReleaseOK(t, base, "h") // heals again

	want := captureDatasetState(t, base, "h")
	s2, base2 := newPersistedServer(t, dir, false)
	if _, err := s2.RecoverAll(); err != nil {
		t.Fatalf("recovery after heals: %v", err)
	}
	requireSameState(t, want, captureDatasetState(t, base2, "h"))
}

// TestPersistRegistrationRollback: a dataset whose initial snapshot cannot
// be written is backed out entirely — 503 to the client, nothing in the
// registry, so a later restart cannot silently miss it.
func TestPersistRegistrationRollback(t *testing.T) {
	dir := t.TempDir()
	_, base := newPersistedServer(t, dir, false)
	// Occupy the dataset's directory name with a file so MkdirAll fails.
	if err := os.WriteFile(filepath.Join(dir, "blocked"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp := rawPost(t, base+"/v1/datasets", map[string]any{"name": "blocked", "builtin": "hospital"})
	if resp.status != http.StatusServiceUnavailable || resp.body.Code != "persist_failed" {
		t.Fatalf("register into blocked dir = %d/%s, want 503/persist_failed", resp.status, resp.body.Code)
	}
	if code := getJSON(t, base+"/v1/datasets/blocked", nil); code != http.StatusNotFound {
		t.Fatalf("rolled-back dataset still visible: %d", code)
	}
	// The name is free again once the obstruction clears.
	if err := os.Remove(filepath.Join(dir, "blocked")); err != nil {
		t.Fatal(err)
	}
	registerHospital(t, base, "blocked")
}

func TestPersistCodeOf(t *testing.T) {
	full := &persistError{err: fmt.Errorf("write wal: %w", syscall.ENOSPC)}
	if got := persistCodeOf(full); got != "disk_full" {
		t.Fatalf("ENOSPC code = %q, want disk_full", got)
	}
	if got := persistCodeOf(&persistError{err: errors.New("io broke")}); got != "persist_failed" {
		t.Fatalf("generic code = %q, want persist_failed", got)
	}
	if got := errorCode(http.StatusServiceUnavailable, full); got != "disk_full" {
		t.Fatalf("envelope code = %q, want disk_full", got)
	}
}

// ---- helpers ----

func appendRowsOK(t *testing.T, base, name string, rows [][]string) {
	t.Helper()
	if code := postJSON(t, base+"/v1/datasets/"+name+"/rows", map[string]any{"rows": rows}, nil); code != http.StatusOK {
		t.Fatalf("append = %d", code)
	}
}

func createReleaseOK(t *testing.T, base, name string) {
	t.Helper()
	if code := postJSON(t, base+"/v1/datasets/"+name+"/releases", map[string]any{}, nil); code != http.StatusCreated {
		t.Fatalf("release = %d", code)
	}
}

func findOne(t *testing.T, pattern string) string {
	t.Helper()
	matches, err := filepath.Glob(pattern)
	if err != nil || len(matches) != 1 {
		t.Fatalf("glob %s: %v (%d matches)", pattern, err, len(matches))
	}
	return matches[0]
}

type rawResponse struct {
	status     int
	retryAfter string
	body       errorBody
}

// rawPost posts and keeps the raw status, Retry-After header and decoded
// error envelope.
func rawPost(t *testing.T, url string, v any) rawResponse {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := rawResponse{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	_ = json.NewDecoder(resp.Body).Decode(&out.body)
	return out
}

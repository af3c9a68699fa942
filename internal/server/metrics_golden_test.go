package server

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ckprivacy/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden")

// maskMetrics replaces the values that differ from run to run — anything
// measured in seconds or bytes, and the arena pool counters, which are
// process-wide and so also move with every other test in the binary —
// leaving HELP/TYPE lines, sample names, labels, order and every other
// value intact.
func maskMetrics(text string) string {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, "{")
		name, _, _ = strings.Cut(name, " ")
		if strings.HasSuffix(name, "_seconds") || strings.HasSuffix(name, "_seconds_sum") ||
			strings.HasSuffix(name, "_bytes") || strings.HasPrefix(name, "ckprivacyd_arena_") {
			lines[i] = line[:strings.LastIndexByte(line, ' ')] + " <masked>"
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsGolden pins the whole /metrics exposition of three servers —
// empty, a persisted leader that took two registrations, an append, a
// release, a disclosure, a job and a 404, and a persisted follower that
// replicated the leader — against testdata/metrics.golden. Regenerate with
// `go test ./internal/server -run MetricsGolden -update` after an
// intentional exposition change.
func TestMetricsGolden(t *testing.T) {
	// One worker keeps the cache and row counters independent of
	// scheduling.
	cfg := Config{SearchWorkers: 1}
	persisted := func(dir string) Config {
		mgr, err := store.Open(store.Options{Dir: dir, CompactBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Store = mgr
		return c
	}
	var got strings.Builder
	section := func(label, url string) {
		got.WriteString("## " + label + "\n")
		got.WriteString(maskMetrics(getText(t, url+"/metrics")))
	}

	_, empty := newTestServer(t, cfg)
	section("empty", empty.URL)

	leader, lts := newTestServer(t, persisted(t.TempDir()))
	registerHospital(t, lts.URL, "h")
	registerHospital(t, lts.URL, "h2")
	appendRowsOK(t, lts.URL, "h", hospitalRows())
	createReleaseOK(t, lts.URL, "h")
	if code := postJSON(t, lts.URL+"/v1/disclosure", map[string]any{"dataset": "h", "k": 1}, nil); code != http.StatusOK {
		t.Fatalf("disclosure = %d", code)
	}
	var acc anonymizeAccepted
	if code := postJSON(t, lts.URL+"/v1/anonymize",
		map[string]any{"dataset": "h2", "criterion": "ck", "c": 0.7, "k": 1, "method": "minimal"},
		&acc); code != http.StatusAccepted {
		t.Fatalf("anonymize = %d", code)
	}
	// Wait off the wire so the job route is requested exactly once.
	j, _ := leader.jobs.get(acc.ID)
	for st := j.snapshot(); st.State == JobQueued || st.State == JobRunning; st = j.snapshot() {
		time.Sleep(time.Millisecond)
	}
	var st jobStatus
	if code := getJSON(t, lts.URL+"/v1/jobs/"+acc.ID, &st); code != http.StatusOK || st.State != JobDone {
		t.Fatalf("job = %d %+v", code, st)
	}
	if code := getJSON(t, lts.URL+"/v1/datasets/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("unknown dataset = %d, want 404", code)
	}
	leader.SetBootDuration(time.Second)
	section("leader", lts.URL)

	fcfg := persisted(t.TempDir())
	fcfg.ReadOnly = true
	follower, fts := newTestServer(t, fcfg)
	shipDataset(t, leader, follower, "h")
	section("follower", fts.URL)

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("/metrics drifted from %s at line %d:\ngot  %q\nwant %q", golden, i+1, g, w)
			}
		}
	}
}

package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ckprivacy/internal/dataload"
	"ckprivacy/internal/replica"
	"ckprivacy/internal/server"
	"ckprivacy/internal/store"
)

// ---- harness ----

// newLeader builds a persisted leader daemon over dir with a registered
// hospital dataset.
func newLeader(t testing.TB, dir string, compactBytes int64) (*server.Server, *httptest.Server) {
	t.Helper()
	if compactBytes == 0 {
		compactBytes = 1 << 30
	}
	mgr, err := store.Open(store.Options{Dir: dir, Fsync: false, CompactBytes: compactBytes})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Store: mgr})
	if err := s.Register("h", dataload.Hospital()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		shutdown(t, s)
	})
	return s, ts
}

// newFollower builds a read-only follower server; dir == "" keeps it
// memory-only.
func newFollower(t testing.TB, dir string) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg := server.Config{ReadOnly: true}
	if dir != "" {
		mgr, err := store.Open(store.Options{Dir: dir, Fsync: false, CompactBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = mgr
	}
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		shutdown(t, s)
	})
	return s, ts
}

func shutdown(t testing.TB, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// startFollowing runs a Follower against the leader until test cleanup.
func startFollowing(t testing.TB, opts replica.Options) *replica.Follower {
	t.Helper()
	if opts.PollInterval == 0 {
		opts.PollInterval = 25 * time.Millisecond
	}
	if opts.WaitMS == 0 {
		opts.WaitMS = 500
	}
	if opts.RetryMin == 0 {
		opts.RetryMin = 5 * time.Millisecond
	}
	if opts.RetryMax == 0 {
		opts.RetryMax = 100 * time.Millisecond
	}
	f, err := replica.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return f
}

func waitCaughtUp(t testing.TB, f *replica.Follower) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("follower never caught up: %v", err)
	}
}

func postJSON(t testing.TB, url string, v any, out any) int {
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

func getJSON(t testing.TB, url string, out any) int {
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

// appendRows appends rows to the leader's hospital dataset and returns the
// new version.
func appendRows(t testing.TB, base string, rows [][]string) int64 {
	t.Helper()
	var resp struct {
		Version int64 `json:"version"`
	}
	if code := postJSON(t, base+"/v1/datasets/h/rows", map[string]any{"rows": rows}, &resp); code != http.StatusOK {
		t.Fatalf("append = %d", code)
	}
	return resp.Version
}

func createRelease(t testing.TB, base string) {
	t.Helper()
	if code := postJSON(t, base+"/v1/datasets/h/releases", map[string]any{}, nil); code != http.StatusCreated {
		t.Fatalf("release = %d", code)
	}
}

// observedState is everything a read client can see about the dataset at
// one version: disclosure, verdict and (current-version only) the release
// audit. elapsed_ms is stripped; the rest must match byte-for-byte between
// leader and follower.
type observedState struct {
	disc  map[string]any
	check map[string]any
}

func captureState(t testing.TB, base, query string) observedState {
	t.Helper()
	var st observedState
	if code := postJSON(t, base+"/v1/disclosure"+query, map[string]any{"dataset": "h", "k": 2}, &st.disc); code != http.StatusOK {
		t.Fatalf("disclosure%s = %d: %v", query, code, st.disc)
	}
	delete(st.disc, "elapsed_ms")
	if code := postJSON(t, base+"/v1/check"+query,
		map[string]any{"dataset": "h", "criterion": "ck", "c": 0.7, "k": 1}, &st.check); code != http.StatusOK {
		t.Fatalf("check%s = %d", query, code)
	}
	delete(st.check, "elapsed_ms")
	return st
}

func requireSameState(t *testing.T, label string, want, got observedState) {
	t.Helper()
	if !reflect.DeepEqual(want.disc, got.disc) {
		w, _ := json.Marshal(want.disc)
		g, _ := json.Marshal(got.disc)
		t.Errorf("%s: disclosure diverged:\nleader   %s\nfollower %s", label, w, g)
	}
	if !reflect.DeepEqual(want.check, got.check) {
		t.Errorf("%s: check diverged: leader %v, follower %v", label, want.check, got.check)
	}
}

// releasesAudit fetches the sequential-release audit with elapsed_ms
// stripped.
func releasesAudit(t testing.TB, base string) map[string]any {
	t.Helper()
	var audit map[string]any
	if code := getJSON(t, base+"/v1/datasets/h/releases?k=1", &audit); code != http.StatusOK {
		t.Fatalf("releases audit = %d", code)
	}
	delete(audit, "elapsed_ms")
	return audit
}

// waitFollowerVersion polls until the follower's applied version reaches
// want.
func waitFollowerVersion(t testing.TB, base string, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info struct {
			Version int64 `json:"version"`
		}
		if code := getJSON(t, base+"/v1/datasets/h", &info); code == http.StatusOK && info.Version >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at version %d, want %d", info.Version, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var extraRows = [][]string{
	{"14850", "26", "M", "flu"},
	{"14860", "22", "F", "heart-disease"},
	{"14853", "23", "M", "mumps"},
}

// ---- satellite 1: end-to-end parity ----

// TestFollowerEndToEndParity runs two in-process daemons — a leader taking
// mixed append/release traffic and a live follower tailing it — and
// asserts the follower serves byte-identical answers: at the current
// version, at every historical version via ?version= pinning, and for the
// sequential-release audit.
func TestFollowerEndToEndParity(t *testing.T) {
	_, leaderTS := newLeader(t, t.TempDir(), 0)

	// Phase 1 traffic lands before the follower exists: it must arrive via
	// the snapshot + WAL bootstrap.
	byVersion := map[int64]observedState{1: captureState(t, leaderTS.URL, "")}
	v := appendRows(t, leaderTS.URL, extraRows)
	byVersion[v] = captureState(t, leaderTS.URL, "")
	createRelease(t, leaderTS.URL)

	followerSrv, followerTS := newFollower(t, t.TempDir())
	f := startFollowing(t, replica.Options{LeaderURL: leaderTS.URL, Server: followerSrv})
	waitCaughtUp(t, f)

	// Phase 2 traffic lands while the follower tails live.
	v = appendRows(t, leaderTS.URL, [][]string{{"14870", "44", "F", "heart-disease"}})
	byVersion[v] = captureState(t, leaderTS.URL, "")
	createRelease(t, leaderTS.URL)
	v = appendRows(t, leaderTS.URL, [][]string{{"14871", "45", "M", "flu"}, {"14872", "31", "F", "mumps"}})
	byVersion[v] = captureState(t, leaderTS.URL, "")
	waitFollowerVersion(t, followerTS.URL, v)

	// Current answers and every pinned version must match the leader's
	// synchronous captures exactly.
	requireSameState(t, "current", captureState(t, leaderTS.URL, ""), captureState(t, followerTS.URL, ""))
	for version, want := range byVersion {
		q := "?version=" + strconv.FormatInt(version, 10)
		requireSameState(t, "version "+strconv.FormatInt(version, 10), want, captureState(t, followerTS.URL, q))
	}
	if want, got := releasesAudit(t, leaderTS.URL), releasesAudit(t, followerTS.URL); !reflect.DeepEqual(want, got) {
		w, _ := json.Marshal(want)
		g, _ := json.Marshal(got)
		t.Errorf("release audit diverged:\nleader   %s\nfollower %s", w, g)
	}

	// Writes stay rejected while replication runs.
	var e struct {
		Code string `json:"code"`
	}
	if code := postJSON(t, followerTS.URL+"/v1/datasets/h/rows",
		map[string]any{"rows": extraRows}, &e); code != http.StatusForbidden || e.Code != "read_only" {
		t.Errorf("follower write = %d/%q, want 403/read_only", code, e.Code)
	}
	// And the follower reports itself caught up with zero lag.
	var info struct {
		Replication struct {
			CaughtUp   bool   `json:"caught_up"`
			LagRecords int    `json:"lag_records"`
			Error      string `json:"error"`
		} `json:"replication"`
	}
	if code := getJSON(t, followerTS.URL+"/v1/datasets/h", &info); code != http.StatusOK {
		t.Fatalf("follower info = %d", code)
	}
	if !info.Replication.CaughtUp || info.Replication.LagRecords != 0 || info.Replication.Error != "" {
		t.Errorf("follower replication block = %+v, want caught up, 0 lag, no error", info.Replication)
	}
}

// ---- satellite 2: chaos ----

// corruptingTransport mangles WAL response bodies: a third pass clean, a
// third are truncated at a random byte offset, a third get one byte
// flipped. The follower must converge anyway — truncation discards the
// partial frame, a flip fails the CRC and is re-fetched — and must never
// diverge.
type corruptingTransport struct {
	base http.RoundTripper

	mu      sync.Mutex
	rng     *rand.Rand
	mangled int
}

func (c *corruptingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/wal") || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	switch c.rng.Intn(3) {
	case 1: // truncate anywhere, mid-record and mid-length-prefix included
		if len(body) > 0 {
			body = body[:c.rng.Intn(len(body))]
			c.mangled++
		}
	case 2: // flip one byte; the record CRC must catch it
		if len(body) > 0 {
			body[c.rng.Intn(len(body))] ^= 0x41
			c.mangled++
		}
	}
	c.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

func (c *corruptingTransport) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mangled
}

// TestFollowerChaosCorruptedStream ships a workload through a transport
// that randomly truncates and bit-flips the WAL stream. The follower must
// end byte-identical to the leader — corruption may slow it down but can
// never make it apply a damaged record.
func TestFollowerChaosCorruptedStream(t *testing.T) {
	_, leaderTS := newLeader(t, t.TempDir(), 0)
	ct := &corruptingTransport{base: http.DefaultTransport, rng: rand.New(rand.NewSource(7))}
	followerSrv, followerTS := newFollower(t, "")
	f := startFollowing(t, replica.Options{
		LeaderURL: leaderTS.URL,
		Server:    followerSrv,
		Client:    &http.Client{Transport: ct, Timeout: 10 * time.Second},
	})

	var finalVersion int64
	for i := 0; i < 8; i++ {
		finalVersion = appendRows(t, leaderTS.URL, extraRows)
		if i%3 == 0 {
			createRelease(t, leaderTS.URL)
		}
	}
	waitCaughtUp(t, f)
	waitFollowerVersion(t, followerTS.URL, finalVersion)

	if ct.count() == 0 {
		t.Fatal("the chaos transport never mangled a response; the test exercised nothing")
	}
	requireSameState(t, "after chaos", captureState(t, leaderTS.URL, ""), captureState(t, followerTS.URL, ""))
	if want, got := releasesAudit(t, leaderTS.URL), releasesAudit(t, followerTS.URL); !reflect.DeepEqual(want, got) {
		t.Errorf("release audit diverged after chaos")
	}
	var info struct {
		Replication struct {
			CaughtUp bool   `json:"caught_up"`
			Error    string `json:"error"`
		} `json:"replication"`
	}
	getJSON(t, followerTS.URL+"/v1/datasets/h", &info)
	if strings.Contains(info.Replication.Error, "diverged") {
		t.Fatalf("corrupted stream caused divergence: %q", info.Replication.Error)
	}
}

// countingTransport counts snapshot fetches.
type countingTransport struct {
	base http.RoundTripper

	mu        sync.Mutex
	snapshots int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/snapshot") {
		c.mu.Lock()
		c.snapshots++
		c.mu.Unlock()
	}
	return c.base.RoundTrip(req)
}

func (c *countingTransport) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshots
}

// TestFollowerKillResumeWithoutSnapshot kills a persisted follower
// (abandoned mid-run, nothing flushed beyond its WAL) and reboots a fresh
// process over the same data dir: recovery must resume tailing from the
// local committed WAL size — zero snapshot fetches — and still converge on
// the leader's post-kill traffic.
func TestFollowerKillResumeWithoutSnapshot(t *testing.T) {
	_, leaderTS := newLeader(t, t.TempDir(), 0)
	appendRows(t, leaderTS.URL, extraRows)
	createRelease(t, leaderTS.URL)

	followerDir := t.TempDir()

	// First follower process: catch up, then die abruptly.
	func() {
		srv1, _ := newFollower(t, followerDir)
		f1, err := replica.New(replica.Options{
			LeaderURL:    leaderTS.URL,
			Server:       srv1,
			PollInterval: 25 * time.Millisecond,
			WaitMS:       500,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); _ = f1.Run(ctx) }()
		waitCaughtUp(t, f1)
		cancel() // kill -9: no graceful teardown of replication state
		<-done
	}()

	// The leader moves on while the follower is down.
	finalVersion := appendRows(t, leaderTS.URL, [][]string{{"14880", "52", "F", "flu"}})
	createRelease(t, leaderTS.URL)

	// Second process over the same dir: recover locally, resume by cursor.
	srv2, ts2 := newFollower(t, followerDir)
	if _, err := srv2.RecoverAll(); err != nil {
		t.Fatalf("follower recovery: %v", err)
	}
	if got := srv2.DatasetVersion("h"); got != 2 {
		t.Fatalf("recovered follower at version %d, want 2 (pre-kill state)", got)
	}
	counting := &countingTransport{base: http.DefaultTransport}
	f2 := startFollowing(t, replica.Options{
		LeaderURL: leaderTS.URL,
		Server:    srv2,
		Client:    &http.Client{Transport: counting, Timeout: 10 * time.Second},
	})
	waitCaughtUp(t, f2)
	waitFollowerVersion(t, ts2.URL, finalVersion)

	if n := counting.count(); n != 0 {
		t.Errorf("rebooted follower fetched %d snapshots; the local WAL cursor should have been enough", n)
	}
	requireSameState(t, "after reboot", captureState(t, leaderTS.URL, ""), captureState(t, ts2.URL, ""))
	if want, got := releasesAudit(t, leaderTS.URL), releasesAudit(t, ts2.URL); !reflect.DeepEqual(want, got) {
		t.Errorf("release audit diverged after reboot")
	}
}

// TestFollowerSupersededRebootstrap compacts the leader's WAL out from
// under a caught-up follower (CompactBytes so small every append
// compacts). The follower's stale cursor gets 409 wal_superseded and must
// transparently re-bootstrap from the fresh snapshot generation.
func TestFollowerSupersededRebootstrap(t *testing.T) {
	_, leaderTS := newLeader(t, t.TempDir(), 1)
	counting := &countingTransport{base: http.DefaultTransport}
	followerSrv, followerTS := newFollower(t, "")
	f := startFollowing(t, replica.Options{
		LeaderURL: leaderTS.URL,
		Server:    followerSrv,
		Client:    &http.Client{Transport: counting, Timeout: 10 * time.Second},
	})
	waitCaughtUp(t, f)
	first := counting.count()
	if first == 0 {
		t.Fatal("initial catch-up fetched no snapshot")
	}

	// Every append compacts: the generation the follower tails disappears.
	var finalVersion int64
	for i := 0; i < 3; i++ {
		finalVersion = appendRows(t, leaderTS.URL, extraRows)
	}
	waitFollowerVersion(t, followerTS.URL, finalVersion)

	if counting.count() <= first {
		t.Errorf("follower caught up without re-bootstrapping after compaction (snapshots %d -> %d)",
			first, counting.count())
	}
	requireSameState(t, "after compaction", captureState(t, leaderTS.URL, ""), captureState(t, followerTS.URL, ""))
}

// TestFollowerCatchesUpPastFetchCap: one append whose WAL record is larger
// than a replication fetch's byte cap (4 MiB) still reaches the follower.
// The leader ships the whole record at the follower's cursor in one
// fetch; a fetch cut at the cap would hand back the same partial frame
// forever.
func TestFollowerCatchesUpPastFetchCap(t *testing.T) {
	const fetchCap = 4 << 20
	_, leaderTS := newLeader(t, t.TempDir(), 0)
	followerSrv, followerTS := newFollower(t, "")
	f := startFollowing(t, replica.Options{LeaderURL: leaderTS.URL, Server: followerSrv})
	waitCaughtUp(t, f)

	// 26 WAL bytes a row: 170,000 rows make a record of ~4.4 MB from a
	// request body of ~6 MB, within the leader's default limits.
	before := walCommitted(t, leaderTS.URL)
	rows := make([][]string, 170000)
	for i := range rows {
		rows[i] = []string{"14860", "22", "F", "heart-disease"}
	}
	version := appendRows(t, leaderTS.URL, rows)
	if grew := walCommitted(t, leaderTS.URL) - before; grew <= fetchCap {
		t.Fatalf("the append logged %d WAL bytes, not more than the %d-byte fetch cap", grew, fetchCap)
	}
	waitFollowerVersion(t, followerTS.URL, version)
	requireSameState(t, "after the large append", captureState(t, leaderTS.URL, ""), captureState(t, followerTS.URL, ""))
}

// walCommitted reads the leader's committed WAL size for the hospital
// dataset from its replication listing.
func walCommitted(t testing.TB, base string) int64 {
	t.Helper()
	var list struct {
		Datasets []struct {
			Name         string `json:"name"`
			WALCommitted int64  `json:"wal_committed"`
		} `json:"datasets"`
	}
	if code := getJSON(t, base+"/v1/replication/datasets", &list); code != http.StatusOK {
		t.Fatalf("replication datasets = %d", code)
	}
	for _, ds := range list.Datasets {
		if ds.Name == "h" {
			return ds.WALCommitted
		}
	}
	t.Fatal("the leader lists no dataset h")
	return 0
}

// ---- satellite 6: catch-up throughput ----

// BenchmarkFollowerCatchup measures full follower catch-up over HTTP —
// snapshot bootstrap plus WAL decode/apply — in records per second.
func BenchmarkFollowerCatchup(b *testing.B) {
	_, leaderTS := newLeader(b, b.TempDir(), 0)
	const records = 64
	for i := 0; i < records; i++ {
		appendRows(b, leaderTS.URL, [][]string{
			{"1485" + strconv.Itoa(i%10), strconv.Itoa(20 + i%60), "M", "flu"},
		})
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		followerSrv := server.New(server.Config{ReadOnly: true})
		f, err := replica.New(replica.Options{
			LeaderURL:    leaderTS.URL,
			Server:       followerSrv,
			PollInterval: 10 * time.Millisecond,
			WaitMS:       500,
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); _ = f.Run(ctx) }()
		waitCtx, waitCancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := f.WaitCaughtUp(waitCtx); err != nil {
			b.Fatal(err)
		}
		waitCancel()
		cancel()
		<-done
		if v := followerSrv.DatasetVersion("h"); v != records+1 {
			b.Fatalf("follower ended at version %d, want %d", v, records+1)
		}
		shutdownCtx, sc := context.WithTimeout(context.Background(), 5*time.Second)
		_ = followerSrv.Shutdown(shutdownCtx)
		sc()
	}
	b.StopTimer()
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

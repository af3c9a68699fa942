package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"time"

	"ckprivacy/internal/loadtest"
	"ckprivacy/internal/replica"
	"ckprivacy/internal/server"
	"ckprivacy/internal/store"
)

// cmdLoadtest is the scale harness: it drives a ckprivacyd (an external
// one via -url, or an in-process daemon it spins up itself) with mixed
// register/append/disclosure/check/anonymize traffic and reports
// per-operation p50/p99 latency plus append throughput. SIGINT/SIGTERM
// drain cleanly: no new operations start, in-flight ones finish, and the
// partial report is still printed.
//
// With -data-dir the in-process daemon persists every mutation through
// the durable store; adding -restart turns the run into a crash-recovery
// smoke test: after the workload the daemon is hard-stopped (no drain, no
// final compaction — the moral equivalent of kill -9), a fresh daemon
// recovers from the same directory, and the recovered dataset must serve
// the same version, rows, releases and disclosure numbers as the one
// that "died".
//
// Adding -replica instead pairs the daemon with an in-process read-only
// follower fed over the replication endpoints; the read half of the mix
// (disclosure/check/info) is routed to the follower while it tails the
// leader's WAL live, and after the workload the follower must catch up
// and answer byte-for-byte identically to the leader.
func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	var (
		url       = fs.String("url", "", "ckprivacyd base URL (empty starts an in-process daemon)")
		rows      = fs.Int("rows", 20000, "synthetic row budget: half registered up front, half streamed via appends")
		clients   = fs.Int("clients", 4, "concurrent client goroutines")
		ops       = fs.Int("ops", 200, "total operation budget across clients")
		seed      = fs.Int64("seed", 1, "synthetic generator seed")
		batch     = fs.Int("append-batch", 64, "rows per append operation")
		k         = fs.Int("k", 2, "largest background-knowledge bound used by disclosure operations")
		dataset   = fs.String("dataset", "loadtest", "name to register the synthetic dataset under")
		asJSON    = fs.Bool("json", false, "emit the report as JSON")
		dataDir   = fs.String("data-dir", "", "durable store directory for the in-process daemon (empty keeps it in-memory)")
		restart   = fs.Bool("restart", false, "after the workload, hard-stop the daemon, recover a fresh one from -data-dir and verify the dataset survived")
		asReplica = fs.Bool("replica", false, "pair the in-process daemon with an in-process read replica: the read half of the mix drives the follower, and after the workload it must catch up and answer identically to the leader (needs -data-dir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *restart && (*url != "" || *dataDir == "") {
		return fmt.Errorf("loadtest: -restart needs an in-process daemon with -data-dir")
	}
	if *asReplica && (*url != "" || *dataDir == "") {
		return fmt.Errorf("loadtest: -replica needs an in-process daemon with -data-dir (the leader ships its durable store)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := *url
	var crash func() // hard-stop the in-process daemon (simulated kill)
	if base == "" {
		// In-process daemon on a loopback port.
		cfg := server.Config{MaxRows: *rows + 1000}
		if *dataDir != "" {
			mgr, err := store.Open(store.Options{Dir: *dataDir, Fsync: true, CompactBytes: 64 << 20})
			if err != nil {
				return fmt.Errorf("loadtest: opening data dir: %w", err)
			}
			cfg.Store = mgr
		}
		srv := server.New(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go func() { _ = httpSrv.Serve(ln) }()
		defer func() {
			drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(drainCtx)
			_ = srv.Shutdown(drainCtx)
		}()
		// The crash path closes the listener and walks away: no drain, no
		// shutdown hooks, the store's files left exactly as the last fsync'd
		// WAL write put them.
		crash = func() { _ = ln.Close() }
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "loadtest: in-process daemon on %s\n", base)
	}

	readBase := ""
	if *asReplica {
		var err error
		if readBase, err = startReplica(ctx, base); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadtest: in-process read replica on %s (reads route here)\n", readBase)
	}

	res, err := loadtest.Run(ctx, loadtest.Config{
		BaseURL:     base,
		Dataset:     *dataset,
		Rows:        *rows,
		Seed:        *seed,
		Clients:     *clients,
		Ops:         *ops,
		AppendBatch: *batch,
		K:           *k,
		ReadURL:     readBase,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else if err := res.Render(os.Stdout); err != nil {
		return err
	}
	if *asReplica {
		if err := verifyReplica(base, readBase, *dataset, *k); err != nil {
			return err
		}
	}
	if *restart {
		return verifyRestart(base, *dataDir, *dataset, *k, *rows, crash)
	}
	return nil
}

// startReplica boots an in-process read-only follower of the leader at
// leaderBase and returns its base URL once the replication loop is up. The
// follower is memory-only: it exercises the shipping path, not a second
// disk. Its lifetime is the process's — the harness exits after the
// verdict, so no teardown plumbing is kept.
func startReplica(ctx context.Context, leaderBase string) (string, error) {
	srv := server.New(server.Config{ReadOnly: true})
	f, err := replica.New(replica.Options{
		LeaderURL:    leaderBase,
		Server:       srv,
		PollInterval: 200 * time.Millisecond,
		WaitMS:       2000,
	})
	if err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	go func() { _ = f.Run(ctx) }()
	return "http://" + ln.Addr().String(), nil
}

// verifyReplica is the post-workload replication verdict: the follower
// must finish catching up (bounded wait), report zero record lag, and
// serve the same version/rows/releases and disclosure numbers the leader
// does.
func verifyReplica(leaderBase, followerBase, dataset string, k int) error {
	want, err := captureServed(leaderBase, dataset, k)
	if err != nil {
		return fmt.Errorf("replica: leader: %w", err)
	}
	wantVersion, _ := want.info["version"].(float64)

	// Bounded catch-up: poll the follower's replication block until it is
	// caught up at (or past) the leader's post-workload version.
	begin := time.Now()
	deadline := begin.Add(60 * time.Second)
	var followerInfo map[string]any
	for {
		followerInfo, err = getJSON(followerBase + "/v1/datasets/" + dataset)
		if err == nil {
			v, _ := followerInfo["version"].(float64)
			repl, _ := followerInfo["replication"].(map[string]any)
			caught, _ := repl["caught_up"].(bool)
			lag, _ := repl["lag_records"].(float64)
			if v >= wantVersion && caught && lag == 0 {
				break
			}
			if errMsg, _ := repl["error"].(string); strings.Contains(errMsg, "diverged") {
				return fmt.Errorf("replica: follower diverged: %s", errMsg)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica: follower never caught up to version %v (last: %v)", wantVersion, followerInfo)
		}
		time.Sleep(50 * time.Millisecond)
	}
	catchup := time.Since(begin).Round(time.Millisecond)

	got, err := captureServed(followerBase, dataset, k)
	if err != nil {
		return fmt.Errorf("replica: follower: %w", err)
	}
	if err := diverged(want, got, "leader", "follower"); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	fmt.Fprintf(os.Stdout,
		"replica: follower caught up to version %.0f in %s post-workload; zero record lag, version/rows/releases and disclosure identical\n",
		wantVersion, catchup)
	return nil
}

// verifyRestart is the kill-and-restart smoke check: capture the dying
// daemon's answers, hard-stop it, recover a fresh daemon from the same
// data directory and require identical answers.
func verifyRestart(base, dir, dataset string, k, rows int, crash func()) error {
	want, err := captureServed(base, dataset, k)
	if err != nil {
		return fmt.Errorf("restart: pre-crash: %w", err)
	}
	crash()

	mgr, err := store.Open(store.Options{Dir: dir, Fsync: true, CompactBytes: 64 << 20})
	if err != nil {
		return fmt.Errorf("restart: reopening data dir: %w", err)
	}
	srv := server.New(server.Config{Store: mgr, MaxRows: rows + 1000})
	begin := time.Now()
	stats, err := srv.RecoverAll()
	if err != nil {
		return fmt.Errorf("restart: recovery: %w", err)
	}
	if stats.Datasets == 0 {
		return fmt.Errorf("restart: nothing recovered from %s", dir)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(drainCtx)
		_ = srv.Shutdown(drainCtx)
	}()
	got, err := captureServed("http://"+ln.Addr().String(), dataset, k)
	if err != nil {
		return fmt.Errorf("restart: post-recovery: %w", err)
	}
	if err := diverged(want, got, "pre-crash", "recovered"); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	fmt.Fprintf(os.Stdout,
		"restart: recovered %d dataset(s), %d wal record(s) replayed in %s; version/rows/releases and disclosure identical\n",
		stats.Datasets, stats.Replayed, time.Since(begin).Round(time.Millisecond))
	return nil
}

// served is what the -replica and -restart verdicts compare between two
// daemons: a dataset's description and one disclosure answer, with the
// timing field stripped.
type served struct{ info, disc map[string]any }

// captureServed reads a dataset's description and its k-disclosure
// answer from the daemon at base.
func captureServed(base, dataset string, k int) (served, error) {
	info, err := getJSON(base + "/v1/datasets/" + dataset)
	if err != nil {
		return served{}, fmt.Errorf("describing dataset: %w", err)
	}
	disc, err := postJSON(base+"/v1/disclosure", map[string]any{"dataset": dataset, "k": k})
	if err != nil {
		return served{}, fmt.Errorf("disclosure: %w", err)
	}
	delete(disc, "elapsed_ms")
	return served{info, disc}, nil
}

// diverged reports the first difference between two captures — the
// dataset's version, rows, releases or dictionary cardinalities, then the
// disclosure answer — naming the two sides by their labels.
func diverged(want, got served, wantLabel, gotLabel string) error {
	for _, field := range []string{"version", "rows", "releases", "dictionary_cardinalities"} {
		if !reflect.DeepEqual(want.info[field], got.info[field]) {
			return fmt.Errorf("dataset %s diverged: %s %v, %s %v",
				field, wantLabel, want.info[field], gotLabel, got.info[field])
		}
	}
	if !reflect.DeepEqual(want.disc, got.disc) {
		return fmt.Errorf("disclosure diverged:\n%s: %v\n%s: %v", wantLabel, want.disc, gotLabel, got.disc)
	}
	return nil
}

func getJSON(url string) (map[string]any, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return decodeJSONResponse(resp)
}

func postJSON(url string, body map[string]any) (map[string]any, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return decodeJSONResponse(resp)
}

func decodeJSONResponse(resp *http.Response) (map[string]any, error) {
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

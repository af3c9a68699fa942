package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataload"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/server"
	"ckprivacy/internal/store"
	"ckprivacy/internal/synth"
	"ckprivacy/internal/table"
)

const (
	dataset     = "bench"
	appendBatch = 64
	maxServeK   = 4
	// appendsPerSecond bounds how many append batches a run pre-generates
	// per measured second; it is about twice what two clients doing only
	// appends can reach.
	appendsPerSecond = 100
)

var serveCs = []float64{0.5, 0.6, 0.7, 0.8, 0.9}

// serveInput is a serving workload's generated input: the registration
// request, the lattice's nodes, every request body the op sequence can
// send, and the append stream.
type serveInput struct {
	write    bool
	seed     int64
	clients  int
	rows     int
	spec     dataload.Spec
	register []byte
	levels   []bucket.Levels
	// disclose[node][k-1] and check[node][k-1][c] are request bodies.
	disclose [][][]byte
	check    [][][][]byte
	batches  [][]table.Row
	appends  [][]byte
}

// serveOp is one op of the seeded sequence.
type serveOp struct {
	kind     string // "disclosure", "check" or "append"
	node, k  int
	c        int // index into serveCs
	sequence int
}

// opMix is each serving workload's op mix per block of 20 ops.
var opMix = map[bool][]struct {
	kind string
	n    int
}{
	false: {{"disclosure", 10}, {"check", 10}},
	true:  {{"append", 6}, {"disclosure", 7}, {"check", 7}},
}

// schedule draws the run's op sequence from the seed: kinds in blocks of
// 20 holding the workload's exact mix, and reads cycling through every
// (node, k) pair once per cycle, each block and cycle in a seeded order.
// Every seed thus sends the same mix in another order, and the sequence
// does not depend on how the clients interleave.
func (in *serveInput) schedule(n int) []serveOp {
	rng := rand.New(rand.NewSource(in.seed))
	var block []string
	for _, m := range opMix[in.write] {
		for range m.n {
			block = append(block, m.kind)
		}
	}
	var kinds []string
	var pairs []int
	ops := make([]serveOp, n)
	for i := range ops {
		if len(kinds) == 0 {
			kinds = append([]string(nil), block...)
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		op := serveOp{kind: kinds[0], sequence: i}
		kinds = kinds[1:]
		if op.kind != "append" {
			if len(pairs) == 0 {
				pairs = rng.Perm(len(in.levels) * maxServeK)
			}
			op.node, op.k, op.c = pairs[0]/maxServeK, 1+pairs[0]%maxServeK, rng.Intn(len(serveCs))
			pairs = pairs[1:]
		}
		ops[i] = op
	}
	return ops
}

func newServeInput(sc scale, seed int64, seconds float64, write bool) (*serveInput, error) {
	in := &serveInput{write: write, seed: seed, clients: min(2, runtime.NumCPU()), rows: sc.serveRows}
	nBatches := 0
	if write {
		nBatches = max(int(math.Ceil(seconds*appendsPerSecond)), 16)
	}
	g, err := synth.New(synth.Config{Rows: sc.serveRows + nBatches*appendBatch, Seed: corpusSeed})
	if err != nil {
		return nil, err
	}
	rows := g.Next(sc.serveRows)
	permute(rows, seed)
	in.spec = synth.Spec(g.Config(), rows)
	if in.register, err = json.Marshal(map[string]any{"name": dataset, "spec": in.spec}); err != nil {
		return nil, err
	}
	for range nBatches {
		b := g.Next(appendBatch)
		body, err := json.Marshal(map[string]any{"rows": b})
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b)
		in.appends = append(in.appends, body)
	}

	hs := synth.Hierarchies(g.Config())
	qi := synth.QI()
	dims := make([]int, len(qi))
	for i, name := range qi {
		dims[i] = hs[name].Levels()
	}
	space, err := lattice.NewSpace(dims)
	if err != nil {
		return nil, err
	}
	for _, n := range space.All() {
		lv := bucket.Levels{}
		for i, name := range qi {
			lv[name] = n[i]
		}
		in.levels = append(in.levels, lv)
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // maps of strings and numbers always marshal
		}
		return b
	}
	in.disclose = make([][][]byte, len(in.levels))
	in.check = make([][][][]byte, len(in.levels))
	for n, lv := range in.levels {
		for k := 1; k <= maxServeK; k++ {
			in.disclose[n] = append(in.disclose[n], mustJSON(map[string]any{"dataset": dataset, "levels": lv, "k": k}))
			var byC [][]byte
			for _, c := range serveCs {
				byC = append(byC, mustJSON(map[string]any{"dataset": dataset, "levels": lv, "criterion": "ck", "c": c, "k": k}))
			}
			in.check[n] = append(in.check[n], byC)
		}
	}
	return in, nil
}

// instance is one in-process daemon behind a loopback listener.
type instance struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
	dir    string
}

// startInstance opens the store (serve-write), starts the server,
// registers the dataset and warms every (node, k) — the set-up a run
// times.
func startInstance(in *serveInput) (*instance, error) {
	inst := &instance{served: make(chan struct{})}
	cfg := server.Config{MaxRows: in.rows + len(in.batches)*appendBatch}
	if in.write {
		dir, err := os.MkdirTemp("", "ckbench-store-")
		if err != nil {
			return nil, err
		}
		inst.dir = dir
		mgr, err := store.Open(store.Options{Dir: dir, Fsync: true, CompactBytes: 64 << 20})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		cfg.Store = mgr
	}
	inst.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(inst.dir)
		return nil, err
	}
	inst.url = "http://" + ln.Addr().String()
	inst.hs = &http.Server{Handler: inst.srv.Handler()}
	go func() {
		defer close(inst.served)
		_ = inst.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	inst.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: in.clients + 1}}

	if status, body, err := inst.post("/v1/datasets", in.register); err != nil || status != http.StatusCreated {
		inst.close()
		return nil, fmt.Errorf("register: status %d, %v: %.200s", status, err, body)
	}
	for n := range in.levels {
		for _, body := range in.disclose[n] {
			if status, reply, err := inst.post("/v1/disclosure", body); err != nil || status != http.StatusOK {
				inst.close()
				return nil, fmt.Errorf("warm-up: status %d, %v: %.200s", status, err, reply)
			}
		}
	}
	return inst, nil
}

func (inst *instance) close() {
	if inst == nil {
		return
	}
	_ = inst.hs.Close() // the listener error is all Close can report
	<-inst.served
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = inst.srv.Shutdown(ctx) // no jobs were submitted, so nothing can be cut short
	inst.client.CloseIdleConnections()
	if inst.dir != "" {
		os.RemoveAll(inst.dir)
	}
}

func (inst *instance) post(path string, body []byte) (int, []byte, error) {
	resp, err := inst.client.Post(inst.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape reads /metrics into a map keyed by series (name plus labels).
func (inst *instance) scrape() (map[string]float64, error) {
	resp, err := inst.client.Get(inst.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// reply holds the response fields the benchmark checks, across routes.
type reply struct {
	Version          int64   `json:"version"`
	Disclosure       float64 `json:"disclosure"`
	Safe             bool    `json:"safe"`
	ElapsedMS        float64 `json:"elapsed_ms"`
	Start            int     `json:"start"`
	Rows             int     `json:"rows"`
	PatchedNodes     int     `json:"patched_nodes"`
	InvalidatedNodes int     `json:"invalidated_nodes"`
}

// opRecord is one measured op: what was sent, how long it took and what
// came back.
type opRecord struct {
	serveOp
	batch   int
	begin   time.Time
	latency float64 // seconds, client side
	status  int
	err     error
	reply   reply
}

// do sends one op and times it from the request to the last response
// byte.
func (inst *instance) do(in *serveInput, op serveOp, nextBatch *atomic.Int64) opRecord {
	rec := opRecord{serveOp: op, batch: -1}
	var path string
	var body []byte
	switch op.kind {
	case "disclosure":
		path, body = "/v1/disclosure", in.disclose[op.node][op.k-1]
	case "check":
		path, body = "/v1/check", in.check[op.node][op.k-1][op.c]
	case "append":
		rec.batch = int(nextBatch.Add(1) - 1)
		if rec.batch >= len(in.appends) {
			rec.err = fmt.Errorf("append stream exhausted after %d batches", len(in.appends))
			return rec
		}
		path, body = "/v1/datasets/"+dataset+"/rows", in.appends[rec.batch]
	}
	rec.begin = time.Now()
	status, data, err := inst.post(path, body)
	rec.latency = time.Since(rec.begin).Seconds()
	rec.status, rec.err = status, err
	if err == nil && status == http.StatusOK {
		rec.err = json.Unmarshal(data, &rec.reply)
	} else if err == nil {
		rec.err = fmt.Errorf("status %d: %.200s", status, data)
	}
	return rec
}

// runServing measures serve-read or serve-write: set-up (repeated, the
// last instance kept), a closed loop of in.clients clients for the given
// time, then the correctness gate against a library recompute.
func runServing(write bool, sc scale, seed int64, seconds float64, trace bool, res *Result) error {
	in, err := newServeInput(sc, seed, seconds, write)
	if err != nil {
		return err
	}
	res.Stamp.Sizes["rows"] = in.rows
	res.Stamp.Sizes["nodes"] = len(in.levels)
	res.Stamp.Sizes["clients"] = in.clients
	res.Stamp.Sizes["append_batch"] = appendBatch
	baseHeap := liveHeap()

	// Set up sc.serveSetups times, keeping the last instance for the
	// measured phase.
	var inst *instance
	defer func() { inst.close() }()
	var setups []float64
	for range sc.serveSetups {
		inst.close()
		inst = nil
		runtime.GC()
		t0 := time.Now()
		if inst, err = startInstance(in); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	before, err := inst.scrape()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ops := in.schedule(int(seconds*1000) + 1000)
	var next, nextBatch atomic.Int64
	recs := make([][]opRecord, in.clients)
	begin := time.Now()
	deadline := begin.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := range in.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) || len(recs[c]) == 0 {
				op := ops[int(next.Add(1)-1)%len(ops)]
				recs[c] = append(recs[c], inst.do(in, op, &nextBatch))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(begin).Seconds()
	runtime.ReadMemStats(&m1)
	after, err := inst.scrape()
	if err != nil {
		return err
	}
	heap := liveHeap() - baseHeap

	var all []opRecord
	for _, rs := range recs {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].sequence < all[j].sequence })
	res.Attempted = len(all)
	for _, r := range all {
		if r.err != nil {
			res.fail("op %d (%s): %v", r.sequence, r.kind, r.err)
		}
	}
	libAppend, problemS, err := serveCheck(in, inst, all, res)
	if err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}

	if trace {
		reportServingTrace(in, all, before, after, &m0, &m1, wall, libAppend, problemS, res)
		return nil
	}
	lat := func(kind string) []float64 {
		var out []float64
		for _, r := range all {
			if (kind == "" || r.kind == kind) && r.err == nil {
				out = append(out, r.latency)
			}
		}
		return out
	}
	ok := lat("")
	res.set("setup_s", median(setups), len(setups))
	res.set("op_p50_ms", ms(median(ok)), len(ok))
	res.set("op_p95_ms", ms(percentile(ok, 0.95)), len(ok))
	res.set("ops_per_s", float64(len(ok))/wall, len(ok))
	res.set("live_heap_mb", heap/(1<<20), 0)
	for _, kind := range []string{"disclosure", "check", "append"} {
		if xs := lat(kind); len(xs) > 0 {
			res.set(kind+"_p50_ms", ms(median(xs)), len(xs))
			res.set(kind+"_p95_ms", ms(percentile(xs, 0.95)), len(xs))
		}
	}
	return nil
}

// serveCheck is the serving correctness gate. Every op must have succeeded
// (runServing has counted those that did not). On serve-read every answer
// is compared with a library recompute on the registered rows; on
// serve-write the appends are replayed into a library problem in version
// order and a sample of disclosures at the final version is compared with
// it. It returns the replay's seconds per append and the library
// NewProblem time.
func serveCheck(in *serveInput, inst *instance, all []opRecord, res *Result) (appendS, problemS float64, err error) {
	b, err := dataload.FromSpec(dataset, in.spec)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	p, err := anonymize.NewProblemWithOptions(b.Table, b.Hierarchies, b.QI, anonymize.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	problemS = time.Since(t0).Seconds()
	// disclosure recomputes node n at knowledge k with a fresh engine on
	// the library problem's current version.
	disclosure := func(n, k int) (float64, error) {
		node, err := p.NodeForLevels(in.levels[n])
		if err != nil {
			return 0, err
		}
		bz, err := p.Bucketize(node)
		if err != nil {
			return 0, err
		}
		return core.NewEngine().MaxDisclosure(bz, k)
	}

	if !in.write {
		want := make(map[[2]int]float64)
		for _, r := range all {
			if r.err != nil {
				continue
			}
			key := [2]int{r.node, r.k}
			d, ok := want[key]
			if !ok {
				if d, err = disclosure(r.node, r.k); err != nil {
					return 0, 0, err
				}
				want[key] = d
			}
			checkAnswer(r, d, 1, res)
		}
		return 0, problemS, nil
	}

	if err := p.Snapshot().MaterializeNodes(p.Space().All()); err != nil {
		return 0, 0, err
	}
	var appends []opRecord
	for _, r := range all {
		if r.kind == "append" && r.err == nil {
			appends = append(appends, r)
		}
	}
	sort.Slice(appends, func(i, j int) bool { return appends[i].reply.Version < appends[j].reply.Version })
	var replay time.Duration
	for i, r := range appends {
		t0 := time.Now()
		ar, err := p.Append(in.batches[r.batch])
		replay += time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		if got := r.reply; got.Version != int64(i+2) || got.Version != ar.Version || got.Start != ar.Start || got.Rows != ar.Rows {
			res.fail("append batch %d: server version %d start %d rows %d, library %d/%d/%d",
				r.batch, got.Version, got.Start, got.Rows, ar.Version, ar.Start, ar.Rows)
		}
	}
	final := int64(len(appends) + 1)
	for _, r := range all {
		if r.kind != "append" && r.err == nil && (r.reply.Version < 1 || r.reply.Version > final) {
			res.fail("op %d (%s): version %d outside 1..%d", r.sequence, r.kind, r.reply.Version, final)
		}
	}
	for n := 0; n < len(in.levels); n += 3 {
		for _, k := range []int{1, maxServeK} {
			r := inst.do(in, serveOp{kind: "disclosure", node: n, k: k, sequence: -1}, nil)
			if r.err != nil {
				res.fail("final disclosure node %d k %d: %v", n, k, r.err)
				continue
			}
			d, err := disclosure(n, k)
			if err != nil {
				return 0, 0, err
			}
			checkAnswer(r, d, final, res)
		}
	}
	if len(appends) > 0 {
		appendS = replay.Seconds() / float64(len(appends))
	}
	return appendS, problemS, nil
}

// checkAnswer compares one disclosure or check reply with the library's
// disclosure d for its node and k at the given version. A check whose
// threshold equals d to within round-off may go either way.
func checkAnswer(r opRecord, d float64, version int64, res *Result) {
	if r.kind == "append" {
		return
	}
	if r.reply.Version != version {
		res.fail("op %d (%s): version %d, want %d", r.sequence, r.kind, r.reply.Version, version)
		return
	}
	switch r.kind {
	case "disclosure":
		if math.Abs(r.reply.Disclosure-d) > 1e-9 {
			res.fail("op %d: node %d k %d disclosure %v, library %v", r.sequence, r.node, r.k, r.reply.Disclosure, d)
		}
	case "check":
		c := serveCs[r.c]
		if math.Abs(d-c) > 1e-9 && r.reply.Safe != (d < c) {
			res.fail("op %d: node %d (%v,%d)-safe %v, library disclosure %v", r.sequence, r.node, c, r.k, r.reply.Safe, d)
		}
	}
}

// reportServingTrace fills the per-layer metrics of a serving run: the
// client/server split of every op, /metrics deltas, the library append
// replay and the Go runtime's counters, per op. Every op gets a
// server.request span and, inside it, a server.compute span as long as
// the server's own elapsed time, placed in the middle because the server
// reports only its duration.
func reportServingTrace(in *serveInput, all []opRecord, before, after map[string]float64,
	m0, m1 *runtime.MemStats, wall, appendS, problemS float64, res *Result) {
	tr := newTracer()
	var overhead, compute []float64
	sumLatency, patched, touched, rejected, appendedRows := 0.0, 0, 0, 0, 0
	for _, r := range all {
		if r.status == http.StatusServiceUnavailable {
			rejected++
		}
		if r.err != nil {
			continue
		}
		sumLatency += r.latency
		srv := r.reply.ElapsedMS / 1000
		overhead = append(overhead, ms(r.latency-srv))
		compute = append(compute, ms(srv))
		end := r.begin.Add(time.Duration(r.latency * float64(time.Second)))
		root := tr.add("server.request", 0, r.sequence, r.begin, end)
		mid := r.begin.Add(time.Duration((r.latency - srv) / 2 * float64(time.Second)))
		tr.add("server.compute", root, r.sequence, mid, mid.Add(time.Duration(srv*float64(time.Second))))
		if r.kind == "append" {
			patched += r.reply.PatchedNodes
			touched += r.reply.PatchedNodes + r.reply.InvalidatedNodes
			appendedRows += appendBatch
		}
	}
	n := float64(max(len(compute), 1))
	delta := func(series string) float64 { return after[series] - before[series] }
	ds := func(series, labels string) float64 {
		return delta(series + `{dataset="` + dataset + `"` + labels + `}`)
	}
	hits, misses := delta("ckprivacyd_engine_memo_hits_total"), delta("ckprivacyd_engine_memo_misses_total")
	res.set("core.memo_hits", hits/n, 0)
	res.set("core.memo_misses", misses/n, 0)
	res.set("core.memo_hit_ratio", ratio(hits, hits+misses), 0)
	res.set("anonymize.problem_s", problemS, 1)
	cacheHits, cacheMisses := ds("ckprivacyd_dataset_cache_hits_total", ""), ds("ckprivacyd_dataset_cache_misses_total", "")
	res.set("anonymize.cache_hit_ratio", ratio(cacheHits, cacheHits+cacheMisses), 0)
	scans, coarsened := ds("ckprivacyd_dataset_planned_nodes_total", `,path="base_scan"`), ds("ckprivacyd_dataset_planned_nodes_total", `,path="coarsened"`)
	res.set("anonymize.planned_nodes", (scans+coarsened+ds("ckprivacyd_dataset_planned_nodes_total", `,path="reused"`))/n, 0)
	res.set("anonymize.base_scans", scans/n, 0)
	res.set("anonymize.coarsened", coarsened/n, 0)
	res.set("anonymize.planner_accuracy", ratio(ds("ckprivacyd_dataset_planned_buckets_total", `,kind="actual"`),
		ds("ckprivacyd_dataset_planned_buckets_total", `,kind="predicted"`)), 0)
	res.set("anonymize.append_s", appendS, 0)
	res.set("anonymize.append_patched_ratio", ratio(float64(patched), float64(touched)), 0)
	gets := delta("ckprivacyd_arena_gets_total")
	res.set("bucket.arena_reuse_ratio", ratio(delta("ckprivacyd_arena_reuses_total"), gets), 0)
	res.set("server.overhead_ms_p50", median(overhead), len(overhead))
	res.set("server.overhead_ms_p95", percentile(overhead, 0.95), len(overhead))
	res.set("server.compute_ms_p50", median(compute), len(compute))
	res.set("server.compute_ms_p95", percentile(compute, 0.95), len(compute))
	res.set("server.rejected", float64(rejected), 0)
	res.set("store.fsync_s", ds("ckprivacyd_wal_fsync_seconds_sum", "")/n, 0)
	res.set("store.fsyncs", ds("ckprivacyd_wal_fsync_seconds_count", "")/n, 0)
	res.set("store.wal_bytes_per_row", ratio(ds("ckprivacyd_wal_bytes", ""), float64(appendedRows)), 0)
	res.set("go.gc_pause_s", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e9/n, 0)
	res.set("go.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/n, 0)
	clientTime := wall * float64(in.clients) / n
	res.set("trace.wall_s", clientTime, len(compute))
	res.set("trace.unattributed_s", clientTime-sumLatency/n, len(compute))
	// The spans are built after the loop from timings every op records
	// anyway, so the traced ops are the untraced ones.
	res.set("trace.overhead_ratio", 1, 0)
	res.Spans = tr.spans
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

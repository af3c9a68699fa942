package main

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataset/adult"
	"ckprivacy/internal/experiments"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/parallel"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/synth"
	"ckprivacy/internal/table"
)

// corpusSeed fixes the generated corpora. The run's -seed permutes their
// rows and draws the serving op sequence, so inputs differ from seed to
// seed while the amount of work, and so the timings, do not.
const corpusSeed = 1

// sweepK is the k of the k-anonymity search that ends each sweep-1m job.
const sweepK = 5

// offlineInput is an offline workload's generated table.
type offlineInput struct {
	tab     *table.Table
	hs      hierarchy.Set
	qi      []string
	workers int
}

// jobState is what one offline job leaves behind: its problem, engine and
// answer. The last job's state is kept for the correctness gate and the
// live-heap measurement.
type jobState struct {
	p         *anonymize.Problem
	engine    *core.Engine
	grid      *experiments.GridResult
	fig6      *experiments.Fig6Result
	minimal   []lattice.Node
	evaluated int
}

// offline describes one offline workload: run is the job through the
// library's entry point; traced is the same job spelled out call by call,
// with a span around each call into a layer (with a nil tracer it is the
// untraced job that leaves its state behind); digest renders a job's
// answer so every job can be compared with the checked one; check is the
// correctness gate.
type offline struct {
	input  func(sc scale, seed int64) (*offlineInput, error)
	run    func(in *offlineInput) (*jobState, error)
	traced func(in *offlineInput, tr *tracer, root int) (*jobState, error)
	digest func(st *jobState) (string, error)
	check  func(in *offlineInput, st *jobState, res *Result) error
}

var gridWorkload = offline{
	input: adultInput,
	run: func(in *offlineInput) (*jobState, error) {
		g, err := experiments.RunSafetyGrid(in.tab, experiments.GridConfig{Workers: in.workers})
		return &jobState{grid: g}, err
	},
	traced: gridTraced,
	digest: func(st *jobState) (string, error) {
		var b bytes.Buffer
		err := st.grid.WriteCSV(&b)
		return b.String(), err
	},
	check: gridCheck,
}

var fig6Workload = offline{
	input: adultInput,
	run: func(in *offlineInput) (*jobState, error) {
		f, err := experiments.RunFig6Config(in.tab, experiments.Fig6Config{Workers: in.workers})
		return &jobState{fig6: f}, err
	},
	traced: fig6Traced,
	digest: func(st *jobState) (string, error) {
		var b strings.Builder
		for _, pt := range st.fig6.Points {
			fmt.Fprintf(&b, "%s %d %v", pt.Node.Key(), pt.Buckets, pt.MinEntropy)
			for _, k := range st.fig6.Ks {
				fmt.Fprintf(&b, " %v", pt.Disclosure[k])
			}
			b.WriteByte('\n')
		}
		return b.String(), nil
	},
	check: fig6Check,
}

var sweepWorkload = offline{
	input: func(sc scale, seed int64) (*offlineInput, error) {
		g, err := synth.New(synth.Config{Rows: sc.sweepRows, Seed: corpusSeed})
		if err != nil {
			return nil, err
		}
		tab, err := g.Table()
		if err != nil {
			return nil, err
		}
		permute(tab.Rows, seed)
		return &offlineInput{tab: tab, hs: synth.Hierarchies(g.Config()), qi: synth.QI(), workers: runtime.GOMAXPROCS(0)}, nil
	},
	run: func(in *offlineInput) (*jobState, error) {
		p, err := anonymize.NewProblemWithOptions(in.tab, in.hs, in.qi, problemOptions(in))
		if err != nil {
			return nil, err
		}
		snap := p.Snapshot()
		if err := snap.MaterializeNodes(p.Space().All()); err != nil {
			return nil, err
		}
		nodes, stats, err := snap.MinimalSafe(privacy.KAnonymity{K: sweepK})
		return &jobState{p: p, minimal: nodes, evaluated: stats.Evaluated}, err
	},
	traced: sweepTraced,
	digest: func(st *jobState) (string, error) {
		var b strings.Builder
		snap := st.p.Snapshot()
		for _, n := range st.p.Space().All() {
			bz, err := snap.Bucketize(n)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s:%d ", n.Key(), len(bz.Buckets))
		}
		for _, n := range st.minimal {
			fmt.Fprintf(&b, "\nminimal %s", n.Key())
		}
		return b.String(), nil
	},
	check: sweepCheck,
}

func adultInput(sc scale, seed int64) (*offlineInput, error) {
	tab, err := adult.Generate(adult.Config{N: sc.adultRows, Seed: corpusSeed})
	if err != nil {
		return nil, err
	}
	permute(tab.Rows, seed)
	return &offlineInput{tab: tab, hs: adult.Hierarchies(), qi: adult.QuasiIdentifiers(), workers: runtime.GOMAXPROCS(0)}, nil
}

// permute shuffles rows with the run's seed (the same people under other
// row ids, in another dictionary-code order) and lays them out afresh in
// the new order with every distinct value stored once, as a loader reading
// the shuffled table would, so scans walk memory in row order whatever
// the seed.
func permute(rows []table.Row, seed int64) {
	rand.New(rand.NewSource(seed)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if len(rows) == 0 {
		return
	}
	flat := make([]string, 0, len(rows)*len(rows[0]))
	intern := map[string]string{}
	for i, r := range rows {
		start := len(flat)
		for _, v := range r {
			s, ok := intern[v]
			if !ok {
				s = strings.Clone(v)
				intern[v] = s
			}
			flat = append(flat, s)
		}
		rows[i] = flat[start:len(flat):len(flat)]
	}
}

func problemOptions(in *offlineInput) anonymize.Options {
	o := anonymize.DefaultOptions()
	o.Workers = in.workers
	return o
}

// gridTraced is experiments.RunSafetyGrid call by call.
func gridTraced(in *offlineInput, tr *tracer, root int) (*jobState, error) {
	id := tr.begin("anonymize.problem", root)
	p, err := anonymize.NewProblemWithOptions(in.tab, in.hs, in.qi, anonymize.DefaultOptions())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	snap := p.Snapshot()
	engine := core.NewEngine()
	cs, ks := experiments.DefaultGridCs, experiments.DefaultFig6Ks
	g := &experiments.GridResult{Cs: cs, Ks: ks, Cells: make([][]experiments.GridCell, len(cs))}
	for i := range g.Cells {
		g.Cells[i] = make([]experiments.GridCell, len(ks))
	}
	var evaluated atomic.Int64
	err = parallel.ForEach(in.workers, len(cs)*len(ks), func(idx int) error {
		i, j := idx/len(ks), idx%len(ks)
		search := tr.begin("anonymize.search", root)
		crit := timedCriterion{privacy.CKSafety{C: cs[i], K: ks[j], Engine: engine}, tr, search}
		node, ok, stats, err := snap.ChainSearch(crit)
		tr.end(search)
		if err != nil {
			return err
		}
		evaluated.Add(int64(stats.Evaluated))
		cell := experiments.GridCell{C: cs[i], K: ks[j], Exists: ok, Height: -1, Evaluated: stats.Evaluated}
		if ok {
			mat := tr.begin("anonymize.materialize", root)
			bz, err := snap.Bucketize(node)
			tr.end(mat)
			if err != nil {
				return err
			}
			cell.Node, cell.Height, cell.Buckets = node, node.Height(), len(bz.Buckets)
		}
		g.Cells[i][j] = cell
		return nil
	})
	return &jobState{p: p, engine: engine, grid: g, evaluated: int(evaluated.Load())}, err
}

// fig6Traced is experiments.RunFig6Config call by call, with the planned
// sweep split into the bottom node's row scan and the coarsening of the
// rest.
func fig6Traced(in *offlineInput, tr *tracer, root int) (*jobState, error) {
	id := tr.begin("anonymize.problem", root)
	p, err := anonymize.NewProblem(in.tab, in.hs, in.qi)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	snap := p.Snapshot()
	if err := materializeTraced(p, snap, tr, root); err != nil {
		return nil, err
	}
	engine := core.NewEngine()
	ks := experiments.DefaultFig6Ks
	nodes := p.Space().All()
	f := &experiments.Fig6Result{Ks: ks, Points: make([]experiments.Fig6Point, len(nodes))}
	err = parallel.ForEach(in.workers, len(nodes), func(i int) error {
		mat := tr.begin("anonymize.materialize", root)
		bz, err := snap.Bucketize(nodes[i])
		tr.end(mat)
		if err != nil {
			return err
		}
		pt := experiments.Fig6Point{Node: nodes[i], Buckets: len(bz.Buckets), MinEntropy: bz.MinEntropy(),
			Disclosure: make(map[int]float64, len(ks))}
		for _, k := range ks {
			dp := tr.begin("core.dp", root)
			d, err := engine.MaxDisclosure(bz, k)
			tr.end(dp)
			if err != nil {
				return err
			}
			pt.Disclosure[k] = d
		}
		f.Points[i] = pt
		return nil
	})
	sort.SliceStable(f.Points, func(i, j int) bool { return f.Points[i].MinEntropy < f.Points[j].MinEntropy })
	return &jobState{p: p, engine: engine, fig6: f}, err
}

// sweepTraced is the sweep-1m job call by call.
func sweepTraced(in *offlineInput, tr *tracer, root int) (*jobState, error) {
	id := tr.begin("anonymize.problem", root)
	p, err := anonymize.NewProblemWithOptions(in.tab, in.hs, in.qi, problemOptions(in))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	snap := p.Snapshot()
	if err := materializeTraced(p, snap, tr, root); err != nil {
		return nil, err
	}
	search := tr.begin("anonymize.search", root)
	nodes, stats, err := snap.MinimalSafe(timedCriterion{privacy.KAnonymity{K: sweepK}, tr, search})
	tr.end(search)
	return &jobState{p: p, minimal: nodes, evaluated: stats.Evaluated}, err
}

// materializeTraced materializes the whole lattice as one planned sweep,
// bucketizing the bottom node first so that its row scan and the
// coarsening of every other node get spans of their own.
func materializeTraced(p *anonymize.Problem, snap *anonymize.Snapshot, tr *tracer, root int) error {
	mat := tr.begin("anonymize.materialize", root)
	defer tr.end(mat)
	scan := tr.begin("bucket.scan", mat)
	_, err := snap.Bucketize(p.Space().Bottom())
	tr.end(scan)
	if err != nil {
		return err
	}
	coarsen := tr.begin("bucket.coarsen", mat)
	defer tr.end(coarsen)
	return snap.MaterializeNodes(p.Space().All())
}

// decimalRat is c as the decimal fraction it was written as (0.8 is 4/5),
// the threshold the exact recheck compares against.
func decimalRat(c float64) *big.Rat {
	r, _ := new(big.Rat).SetString(strconv.FormatFloat(c, 'g', -1, 64))
	return r
}

// gridCheck rechecks every cell in exact arithmetic: its node is safe and
// the chain node below it is not; a cell with no safe node has an unsafe
// top.
func gridCheck(_ *offlineInput, st *jobState, res *Result) error {
	chain := st.p.Space().Chain()
	snap := st.p.Snapshot()
	exact := core.NewEngine()
	safe := func(n lattice.Node, c float64, k int) (bool, error) {
		bz, err := snap.Bucketize(n)
		if err != nil {
			return false, err
		}
		return exact.IsCKSafeExact(bz, decimalRat(c), k)
	}
	for _, row := range st.grid.Cells {
		for _, cell := range row {
			at := len(chain) - 1
			if cell.Exists {
				at = cell.Height
				if at >= len(chain) || chain[at].Key() != cell.Node.Key() {
					res.fail("grid c=%v k=%d: node %v is not chain node %d", cell.C, cell.K, cell.Node, cell.Height)
					continue
				}
			}
			ok, err := safe(chain[at], cell.C, cell.K)
			if err != nil {
				return err
			}
			if ok != cell.Exists {
				res.fail("grid c=%v k=%d: exact safety of %v is %v", cell.C, cell.K, chain[at], ok)
			}
			if cell.Exists && at > 0 {
				below, err := safe(chain[at-1], cell.C, cell.K)
				if err != nil {
					return err
				}
				if below {
					res.fail("grid c=%v k=%d: %v is safe in exact arithmetic but not chosen", cell.C, cell.K, chain[at-1])
				}
			}
		}
	}
	return nil
}

// fig6Sample is how many of the coarsest nodes fig6Check recomputes in
// exact arithmetic.
const fig6Sample = 8

// fig6Check recomputes the disclosures of the coarsest nodes (fewest
// buckets, then lattice order) with big.Rat arithmetic.
func fig6Check(_ *offlineInput, st *jobState, res *Result) error {
	pts := append([]experiments.Fig6Point(nil), st.fig6.Points...)
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].Buckets != pts[j].Buckets {
			return pts[i].Buckets < pts[j].Buckets
		}
		return pts[i].Node.Key() < pts[j].Node.Key()
	})
	snap := st.p.Snapshot()
	exact := core.NewEngine()
	for _, pt := range pts[:min(fig6Sample, len(pts))] {
		bz, err := snap.Bucketize(pt.Node)
		if err != nil {
			return err
		}
		for _, k := range st.fig6.Ks {
			r, err := exact.ExactMaxDisclosure(bz, k)
			if err != nil {
				return err
			}
			want, _ := r.Float64()
			if got := pt.Disclosure[k]; math.Abs(got-want) > 1e-9 {
				res.fail("fig6 %v k=%d: disclosure %v, exact %v", pt.Node, k, got, want)
			}
		}
	}
	return nil
}

// sweepCheck verifies that every node's buckets hold each row exactly once
// with histogram mass equal to the row count, that three nodes equal a
// fresh problem's single-node bucketization, and that the search's nodes
// are k-anonymous with no k-anonymous child.
func sweepCheck(in *offlineInput, st *jobState, res *Result) error {
	snap := st.p.Snapshot()
	all := st.p.Space().All()
	rows := in.tab.Len()
	seen := make([]bool, rows)
	for _, n := range all {
		bz, err := snap.Bucketize(n)
		if err != nil {
			return err
		}
		clear(seen)
		tuples, mass := 0, 0
		for _, b := range bz.Buckets {
			for _, id := range b.Tuples {
				if id < 0 || id >= rows || seen[id] {
					res.fail("sweep %v: row %d missing or repeated", n, id)
					break
				}
				seen[id] = true
			}
			tuples += len(b.Tuples)
			for _, c := range b.Histogram() {
				mass += c
			}
		}
		if tuples != rows || mass != rows {
			res.fail("sweep %v: %d tuples, histogram mass %d, want %d", n, tuples, mass, rows)
		}
	}
	for _, n := range []lattice.Node{all[len(all)/4], all[len(all)/2], all[3*len(all)/4]} {
		fresh, err := anonymize.NewProblemWithOptions(in.tab, in.hs, in.qi, problemOptions(in))
		if err != nil {
			return err
		}
		want, err := fresh.Bucketize(n)
		if err != nil {
			return err
		}
		got, err := snap.Bucketize(n)
		if err != nil {
			return err
		}
		if !sameBuckets(got, want) {
			res.fail("sweep %v: planned bucketization differs from a fresh single-node one", n)
		}
	}
	kanon := func(n lattice.Node) (bool, error) {
		bz, err := snap.Bucketize(n)
		if err != nil {
			return false, err
		}
		return bz.MinSize() >= sweepK, nil
	}
	for _, n := range st.minimal {
		ok, err := kanon(n)
		if err != nil {
			return err
		}
		if !ok {
			res.fail("sweep: minimal node %v is not %d-anonymous", n, sweepK)
		}
		for _, c := range st.p.Space().Children(n) {
			if ok, err := kanon(c); err != nil {
				return err
			} else if ok {
				res.fail("sweep: minimal node %v has %d-anonymous child %v", n, sweepK, c)
			}
		}
	}
	return nil
}

func sameBuckets(a, b *bucket.Bucketization) bool {
	if len(a.Buckets) != len(b.Buckets) {
		return false
	}
	for i, x := range a.Buckets {
		y := b.Buckets[i]
		if x.Key != y.Key || !slicesEqual(x.Tuples, y.Tuples) || !slicesEqual(x.Histogram(), y.Histogram()) {
			return false
		}
	}
	return true
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runOffline measures an offline workload: jobs until the time is up, each
// preceded by a timed set-up (alternating untraced and traced jobs on a
// traced run), then one more job, run serially, whose state the
// correctness gate checks and the live-heap measurement keeps alive; every
// measured job's answer must equal the serial one. Set-ups are spread over
// the run so their median sees the same machine as the jobs'.
func runOffline(w offline, sc scale, seed int64, seconds float64, trace bool, res *Result) error {
	in, err := w.input(sc, seed)
	if err != nil {
		return err
	}
	res.Stamp.Sizes["rows"] = in.tab.Len()
	res.Stamp.Sizes["workers"] = in.workers
	baseHeap := liveHeap()

	var tr *tracer
	if trace {
		tr = newTracer()
	}
	acc := newLayerAcc()
	var setups, plain, tracedTimes []float64
	first, firstJob := "", -1
	begin := time.Now()
	for job := 0; job < 2 || time.Since(begin).Seconds() < seconds; job++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := anonymize.NewProblemWithOptions(in.tab, in.hs, in.qi, problemOptions(in)); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())

		res.Attempted++
		var st *jobState
		if tr != nil && job%2 == 1 {
			st, err = acc.tracedJob(w, in, tr, job)
			if err == nil {
				tracedTimes = append(tracedTimes, acc.lastWall)
			}
		} else {
			t0 := time.Now()
			st, err = w.run(in)
			if err == nil {
				plain = append(plain, time.Since(t0).Seconds())
			}
		}
		var d string
		if err == nil {
			d, err = w.digest(st)
		}
		switch {
		case err != nil:
			res.fail("job %d: %v", job, err)
		case firstJob < 0:
			first, firstJob = d, job
		case d != first:
			res.fail("job %d: answer differs from job %d's", job, firstJob)
		}
	}
	wall := time.Since(begin).Seconds()

	serial := *in
	serial.workers = 1
	st, err := w.traced(&serial, nil, 0)
	if err != nil {
		return fmt.Errorf("checked job: %w", err)
	}
	heap := liveHeap() - baseHeap
	want, err := w.digest(st)
	if err != nil {
		return err
	}
	if firstJob >= 0 && first != want {
		res.fail("job %d: answer differs from the checked job's", firstJob)
	}
	if err := w.check(in, st, res); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}

	if trace {
		acc.report(res, median(tracedTimes)/median(plain))
		res.Spans = tr.spans
		return nil
	}
	res.set("setup_s", median(setups), len(setups))
	res.set("op_p50_ms", ms(median(plain)), len(plain))
	res.set("op_p95_ms", ms(percentile(plain, 0.95)), len(plain))
	res.set("ops_per_s", float64(len(plain))/wall, len(plain))
	res.set("live_heap_mb", heap/(1<<20), 0)
	return nil
}

// liveHeap is the heap in use after a forced collection, in bytes. The
// second collection empties the sync.Pool caches the first one only moved
// aside, so pooled scratch does not count as retained.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// layerAcc sums the per-layer numbers of an offline run's traced jobs.
type layerAcc struct {
	jobs     int
	sums     map[string]float64
	lastWall float64
}

func newLayerAcc() *layerAcc { return &layerAcc{sums: map[string]float64{}} }

// tracedJob runs one traced job as job number job and adds its spans'
// self times and its layers' counters to the sums.
func (a *layerAcc) tracedJob(w offline, in *offlineInput, tr *tracer, job int) (*jobState, error) {
	tr.job = job
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gets0, reuses0 := bucket.ArenaStats()
	root := tr.begin("job", 0)
	st, err := w.traced(in, tr, root)
	tr.end(root)
	gets1, reuses1 := bucket.ArenaStats()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	spans := tr.jobSpans(job)
	a.jobs++
	a.lastWall = float64(spans[0].End-spans[0].Start) / 1e9
	s := a.sums
	s["trace.wall_s"] += a.lastWall
	for name, v := range selfTimes(spans) {
		s[name] += v
	}
	for _, sp := range spans {
		switch sp.Name {
		case "core.dp":
			s["core.dp_calls"]++
		case "bucket.scan":
			s["anonymize.base_scans"]++
			s["scan_rows"] += float64(in.tab.Len())
			s["scan_s"] += float64(sp.End-sp.Start) / 1e9
		}
	}
	if st.engine != nil {
		es := st.engine.Stats()
		s["core.memo_hits"] += float64(es.Hits)
		s["core.memo_misses"] += float64(es.Misses)
	}
	if st.p != nil {
		ss := st.p.SweepStats()
		s["anonymize.planned_nodes"] += float64(ss.PlannedNodes)
		s["anonymize.base_scans"] += float64(ss.BaseScans)
		s["anonymize.coarsened"] += float64(ss.Coarsened)
		s["predicted_buckets"] += float64(ss.PredictedBuckets)
		s["actual_buckets"] += float64(ss.ActualBuckets)
		cs := st.p.CacheStats()
		s["cache_hits"] += float64(cs.Hits)
		s["cache_misses"] += float64(cs.Misses)
	}
	s["lattice.evaluated"] += float64(st.evaluated)
	s["arena_gets"] += float64(gets1 - gets0)
	s["arena_reuses"] += float64(reuses1 - reuses0)
	s["go.gc_pause_s"] += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	s["go.alloc_mb"] += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	return st, nil
}

// report sets the per-layer metrics: per-job means and pooled ratios.
func (a *layerAcc) report(res *Result, overhead float64) {
	s := a.sums
	for _, name := range []string{
		"core.dp_s", "core.dp_calls", "core.memo_hits", "core.memo_misses",
		"anonymize.problem_s", "anonymize.materialize_s", "anonymize.search_self_s",
		"anonymize.planned_nodes", "anonymize.base_scans", "anonymize.coarsened",
		"bucket.scan_s", "bucket.coarsen_s", "lattice.evaluated",
		"go.gc_pause_s", "go.alloc_mb", "trace.wall_s", "trace.unattributed_s",
	} {
		res.set(name, s[name]/float64(a.jobs), a.jobs)
	}
	res.set("core.memo_hit_ratio", ratio(s["core.memo_hits"], s["core.memo_hits"]+s["core.memo_misses"]), 0)
	res.set("anonymize.planner_accuracy", ratio(s["actual_buckets"], s["predicted_buckets"]), 0)
	res.set("anonymize.cache_hit_ratio", ratio(s["cache_hits"], s["cache_hits"]+s["cache_misses"]), 0)
	res.set("bucket.scan_rows_per_s", ratio(s["scan_rows"], s["scan_s"]), 0)
	res.set("bucket.arena_reuse_ratio", ratio(s["arena_reuses"], s["arena_gets"]), 0)
	res.set("trace.overhead_ratio", overhead, a.jobs)
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports, whatever the
// workload. An "op" is one job on the offline workloads and one HTTP request
// on the serving workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// details are the end-to-end metrics untraced result files carry next to
// endToEnd: the op tail, which a handful of offline jobs cannot estimate
// steadily; throughput, which drifts with the machine even more than the
// median; the per-route latencies, which only the serving workloads have;
// and the error rate.
var details = []metricDef{
	{"op_p95_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"disclosure_p50_ms", "ms"},
	{"disclosure_p95_ms", "ms"},
	{"check_p50_ms", "ms"},
	{"check_p95_ms", "ms"},
	{"append_p50_ms", "ms"},
	{"append_p95_ms", "ms"},
	{"error_rate", "ratio"},
}

// perLayer are the metrics a traced run reports, on every workload; a layer
// the workload does not reach reports 0. Times and counts are means per
// traced job (offline) or per op (serving), except server.rejected, a run
// total.
var perLayer = []metricDef{
	{"core.dp_s", "s"},
	{"core.dp_calls", "count"},
	{"core.memo_hits", "count"},
	{"core.memo_misses", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"anonymize.problem_s", "s"},
	{"anonymize.materialize_s", "s"},
	{"anonymize.search_self_s", "s"},
	{"anonymize.planned_nodes", "count"},
	{"anonymize.base_scans", "count"},
	{"anonymize.coarsened", "count"},
	{"anonymize.planner_accuracy", "ratio"},
	{"anonymize.cache_hit_ratio", "ratio"},
	{"anonymize.append_s", "s"},
	{"anonymize.append_patched_ratio", "ratio"},
	{"bucket.scan_s", "s"},
	{"bucket.scan_rows_per_s", "1/s"},
	{"bucket.coarsen_s", "s"},
	{"bucket.arena_reuse_ratio", "ratio"},
	{"lattice.evaluated", "count"},
	{"server.overhead_ms_p50", "ms"},
	{"server.overhead_ms_p95", "ms"},
	{"server.compute_ms_p50", "ms"},
	{"server.compute_ms_p95", "ms"},
	{"server.rejected", "count"},
	{"store.fsync_s", "s"},
	{"store.fsyncs", "count"},
	{"store.wal_bytes_per_row", "B"},
	{"go.gc_pause_s", "s"},
	{"go.alloc_mb", "MB"},
	{"trace.wall_s", "s"},
	{"trace.unattributed_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// Metric is one measured value. Samples is the number of timings behind a
// median or percentile (0 for counts and ratios).
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// Stamp records the environment a result was measured in. compare pairs
// only results whose stamps agree on everything but Revision, Dirty and
// Start; Start orders the runs in time, which is how compare pairs them.
type Stamp struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	GoVersion  string         `json:"go_version"`
	Revision   string         `json:"revision"`
	Dirty      bool           `json:"dirty"`
	Start      time.Time      `json:"start"`
	Seconds    float64        `json:"seconds"`
	Sizes      map[string]int `json:"sizes"`
}

// Result is what one run of one workload writes to its result file.
type Result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Stamp      Stamp             `json:"stamp"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Mismatches []string          `json:"mismatches,omitempty"`
	Metrics    map[string]Metric `json:"metrics"`
	Spans      []Span            `json:"spans,omitempty"`
}

func newResult(workload string, seed int64, trace bool, seconds float64) *Result {
	st := Stamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Start:      time.Now().UTC(),
		Seconds:    seconds,
		Sizes:      map[string]int{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Revision = s.Value
			case "vcs.modified":
				st.Dirty = s.Value == "true"
			}
		}
	}
	return &Result{Workload: workload, Seed: seed, Trace: trace, Stamp: st, Metrics: map[string]Metric{}}
}

// set records a catalogued metric; an uncatalogued name is a bug.
func (r *Result) set(name string, v float64, samples int) {
	for _, list := range [][]metricDef{endToEnd, details, perLayer} {
		for _, d := range list {
			if d.name == name {
				r.Metrics[name] = Metric{Value: v, Unit: d.unit, Samples: samples}
				return
			}
		}
	}
	panic("ckbench: uncatalogued metric " + name)
}

// fail records a wrong answer or failed operation found by the workload's
// checks.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Mismatches) < 50 {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

// finish fills the error rate and, on a traced run, every per-layer metric
// the workload did not reach.
func (r *Result) finish() {
	r.Correct = r.Failed == 0
	if r.Trace {
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.name]; !ok {
				r.set(d.name, 0, 0)
			}
		}
		return
	}
	r.set("error_rate", float64(r.Failed)/float64(max(r.Attempted, 1)), 0)
}

// reported are the metrics the run's final line carries: the end-to-end
// set untraced, the per-layer set traced.
func (r *Result) reported() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// summaryLine is the one-line JSON result printed last on stdout.
func (r *Result) summaryLine() ([]byte, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]valueUnit{}}
	for _, d := range r.reported() {
		m, ok := r.Metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not report %s", r.Workload, d.name)
		}
		line.Metrics[d.name] = valueUnit{m.Value, m.Unit}
	}
	return json.Marshal(line)
}

func (r *Result) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// median of xs (which it sorts); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile is the nearest-rank p-quantile of xs (which it sorts).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// "exclusive" method, so compare reports the spreads the benchmark's
// acceptance rule uses. xs is sorted in place.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(s float64) float64 { return s * 1000 }

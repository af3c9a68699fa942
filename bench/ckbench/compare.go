package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"
)

// boundSpec is what compare reads from BENCHMARK.json: each end-to-end
// metric's direction and regression bound (a share of the base median).
type boundSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain implements "ckbench compare [-bench BENCHMARK.json] BASE NEW":
// it reads every untraced result file in the two directories and prints,
// per workload and end-to-end metric, each side's median and quartiles,
// how many of the back-to-back pairs of runs the new side wins, and a
// verdict. It exits 1 when any metric regressed and 2 when the inputs
// cannot be compared.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("ckbench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: ckbench compare [-bench BENCHMARK.json] BASE_DIR NEW_DIR")
		return 2
	}
	code, err := compare(*benchPath, fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckbench compare:", err)
		return 2
	}
	return code
}

func compare(benchPath, baseDir, newDir string) (int, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return 0, err
	}
	var spec boundSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return 0, fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := loadResults(baseDir)
	if err != nil {
		return 0, err
	}
	head, err := loadResults(newDir)
	if err != nil {
		return 0, err
	}
	var ref *Result
	first := map[string]*Result{}
	for _, side := range []map[string][]*Result{base, head} {
		for w, rs := range side {
			for _, r := range rs {
				if ref == nil {
					ref = r
				}
				if first[w] == nil {
					first[w] = r
				}
				d := stampDiff(ref.Stamp, r.Stamp)
				if d == "" && !reflect.DeepEqual(first[w].Stamp.Sizes, r.Stamp.Sizes) {
					ref, d = first[w], "input sizes"
				}
				if d != "" {
					return 0, fmt.Errorf("results measured in different environments (%s): %s seed %d vs %s seed %d",
						d, ref.Workload, ref.Seed, r.Workload, r.Seed)
				}
			}
		}
	}
	for _, w := range workloads {
		if len(base[w]) > 0 && len(head[w]) > 0 {
			if err := checkInterleaved(w, base[w], head[w]); err != nil {
				return 0, err
			}
		}
	}

	type rule struct {
		name   string
		lower  bool
		bound  float64
		graded bool
	}
	var rules []rule
	for _, m := range spec.EndToEnd {
		rules = append(rules, rule{m.Name, m.Better != "higher", m.Bound, true})
	}
	for _, d := range details {
		// A rate is better higher; every other detail is a time or a share
		// of failures.
		rules = append(rules, rule{d.name, d.unit != "1/s", 0, d.name == "error_rate"})
	}
	code := 0
	fmt.Printf("%-12s %-18s %-6s %-32s %-32s %-6s %s\n", "workload", "metric", "unit", "base median [q1 q3]", "new median [q1 q3]", "wins", "verdict")
	for _, w := range workloads {
		b, h := base[w], head[w]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		for _, ru := range rules {
			bv, unit := values(b, ru.name)
			hv, _ := values(h, ru.name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			wins, pairs := 0, min(len(bv), len(hv))
			for i := range pairs {
				if better(hv[i], bv[i], ru.lower) {
					wins++
				}
			}
			verdict := "-"
			if ru.graded {
				verdict = judge(bv, hv, wins, pairs, ru.lower, ru.bound)
			}
			if verdict == "regressed" {
				code = 1
			}
			fmt.Printf("%-12s %-18s %-6s %-32s %-32s %-6s %s\n", w, ru.name, unit, summary(bv), summary(hv),
				fmt.Sprintf("%d/%d", wins, pairs), verdict)
		}
	}
	return code, nil
}

// judge applies the benchmark's rules to one metric: a gain needs wins in
// at least nine tenths of the pairs and medians further apart than the
// base runs' quartile spread; a regression is a median worse than the
// base median by more than bound (for error_rate, by anything at all); a
// metric whose spread exceeds its bound on either side is unresolved
// unless every new run beats every base run.
func judge(base, head []float64, wins, pairs int, lower bool, bound float64) string {
	bm, hm := median(append([]float64(nil), base...)), median(append([]float64(nil), head...))
	bq1, bq3 := quartiles(append([]float64(nil), base...))
	hq1, hq3 := quartiles(append([]float64(nil), head...))
	spread := func(q1, q3, m float64) float64 { return (q3 - q1) / math.Abs(m) }
	worse := hm - bm
	if !lower {
		worse = -worse
	}
	switch {
	case better(hm, bm, lower) && wins*10 >= pairs*9 && math.Abs(hm-bm) > bq3-bq1:
		return "improved"
	case worse > bound*math.Abs(bm):
		return "regressed"
	case bm != 0 && (spread(bq1, bq3, bm) > bound || spread(hq1, hq3, hm) > bound):
		for _, h := range head {
			for _, b := range base {
				if !better(h, b, lower) {
					return "unresolved"
				}
			}
		}
	}
	return "no-regression"
}

func better(a, b float64, lower bool) bool {
	if lower {
		return a < b
	}
	return a > b
}

func summary(xs []float64) string {
	c := append([]float64(nil), xs...)
	q1, q3 := quartiles(c)
	return fmt.Sprintf("%.5g [%.5g %.5g]", median(c), q1, q3)
}

// checkInterleaved requires that a workload's base and new runs were made
// back to back: taken in order of their start times, runs 1–2, 3–4, … must
// each be one base and one new run of the same seed, either side first.
// The machine's speed drifts over minutes, so sides measured minutes apart
// differ by more than any change under test.
func checkInterleaved(workload string, base, head []*Result) error {
	if len(base) != len(head) {
		return fmt.Errorf("%s: %d base runs and %d new runs; compare needs one new run beside each base run", workload, len(base), len(head))
	}
	type run struct {
		r    *Result
		base bool
	}
	var runs []run
	for _, r := range base {
		runs = append(runs, run{r, true})
	}
	for _, r := range head {
		runs = append(runs, run{r, false})
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].r.Stamp.Start.Before(runs[j].r.Stamp.Start) })
	for i := 0; i < len(runs); i += 2 {
		a, b := runs[i], runs[i+1]
		if a.base == b.base || a.r.Seed != b.r.Seed {
			return fmt.Errorf("%s: base and new runs do not alternate in time: runs %d and %d (seeds %d and %d, started %s and %s) "+
				"are not one base and one new run of one seed; run each seed on both sides back to back",
				workload, i+1, i+2, a.r.Seed, b.r.Seed, a.r.Stamp.Start.Format(time.RFC3339), b.r.Stamp.Start.Format(time.RFC3339))
		}
	}
	return nil
}

// values returns one metric of the results, in the results' (start time)
// order, and its unit. Interleaved sides thus pair run by run.
func values(rs []*Result, name string) ([]float64, string) {
	var out []float64
	unit := ""
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
			unit = m.Unit
		}
	}
	return out, unit
}

// loadResults reads a directory's untraced result files, grouped by
// workload and sorted by start time.
func loadResults(dir string) (map[string][]*Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*Result{}
	for _, p := range paths {
		r, err := readResult(p)
		if err != nil {
			return nil, err
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced result files in %s", dir)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Stamp.Start.Before(rs[j].Stamp.Start) })
	}
	return out, nil
}

// stampDiff names the first environment field two stamps differ in, the
// revision and dirty flag aside; "" when they agree.
func stampDiff(a, b Stamp) string {
	switch {
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return "GOMAXPROCS"
	case a.NumCPU != b.NumCPU:
		return "nproc"
	case a.GoVersion != b.GoVersion:
		return "Go version"
	case a.Seconds != b.Seconds:
		return "seconds"
	}
	return ""
}

// Command ckbench is the repository's benchmark: five seeded workloads that
// time the (c,k)-safety library and the ckprivacyd server end to end, check
// every answer against an oracle, and with -trace 1 attribute the time to
// the layers (core, anonymize, bucket, lattice, server, store).
//
//	ckbench -workload grid -seed 1 -seconds 10 -trace 0
//	ckbench compare base-results/ new-results/
//
// Each run prints its metrics, writes a result file, and prints as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}. It
// exits 1 when an answer is wrong or an operation fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ckprivacy/internal/dataset/adult"
)

// scale fixes the input sizes and how often a serving run sets up. The
// command always runs fullScale; the smoke test runs smaller inputs.
type scale struct {
	adultRows   int
	sweepRows   int
	serveRows   int
	serveSetups int
}

var fullScale = scale{adultRows: adult.DefaultN, sweepRows: 1_000_000, serveRows: 200_000, serveSetups: 3}

var workloads = []string{"grid", "fig6", "sweep-1m", "serve-read", "serve-write"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// runWorkload generates the workload's inputs from seed, measures it for
// the given seconds and runs its correctness gate.
func runWorkload(name string, sc scale, seed int64, seconds float64, trace bool) (*Result, error) {
	res := newResult(name, seed, trace, seconds)
	var err error
	switch name {
	case "grid":
		err = runOffline(gridWorkload, sc, seed, seconds, trace, res)
	case "fig6":
		err = runOffline(fig6Workload, sc, seed, seconds, trace, res)
	case "sweep-1m":
		err = runOffline(sweepWorkload, sc, seed, seconds, trace, res)
	case "serve-read":
		err = runServing(false, sc, seed, seconds, trace, res)
	case "serve-write":
		err = runServing(true, sc, seed, seconds, trace, res)
	default:
		return nil, fmt.Errorf("unknown workload %q (want all or one of %s)", name, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.finish()
	return res, nil
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("ckbench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the measured phase of each workload runs")
	trace := fs.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics instead of end-to-end ones")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory the result files are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "ckbench: want -trace 0|1, -seconds > 0 and no arguments")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	code := 0
	for _, name := range names {
		t0 := time.Now()
		res, err := runWorkload(name, fullScale, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ckbench:", err)
			return 1
		}
		path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", name, *seed, *trace))
		if err := res.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "ckbench:", err)
			return 1
		}
		printResult(res, path, time.Since(t0))
		line, err := res.summaryLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ckbench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			for _, m := range res.Mismatches {
				fmt.Fprintln(os.Stderr, "ckbench: wrong:", m)
			}
			code = 1
		}
	}
	return code
}

// printResult writes the human-readable report of one run.
func printResult(r *Result, path string, took time.Duration) {
	st := r.Stamp
	fmt.Printf("workload %s  seed %d  trace %v  started %s  sizes %v\n", r.Workload, r.Seed, r.Trace,
		st.Start.Format(time.RFC3339), st.Sizes)
	fmt.Printf("GOMAXPROCS %d  nproc %d  %s  revision %s dirty %v\n", st.GOMAXPROCS, st.NumCPU, st.GoVersion, st.Revision, st.Dirty)
	defs := r.reported()
	if !r.Trace {
		defs = append(append([]metricDef(nil), endToEnd...), details...)
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Printf("  %-32s %14.6g %-6s n=%d\n", d.name, m.Value, m.Unit, m.Samples)
		}
	}
	fmt.Printf("correct %v  attempted %d  failed %d  result %s  (%.1fs)\n", r.Correct, r.Attempted, r.Failed, path, took.Seconds())
}

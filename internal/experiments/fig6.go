package experiments

import (
	"fmt"
	"io"
	"sort"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataset/adult"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/parallel"
	"ckprivacy/internal/table"
)

// DefaultFig6Ks are the series the paper plots in Figure 6.
var DefaultFig6Ks = []int{1, 3, 5, 7, 9, 11}

// Fig6Point is one anonymized table (lattice node): its minimum bucket
// entropy h and its maximum disclosure per k.
type Fig6Point struct {
	Node       lattice.Node
	Buckets    int
	MinEntropy float64
	// Disclosure maps k to the table's maximum disclosure w.r.t. L^k_basic.
	Disclosure map[int]float64
	// Negation, when the sweep was run with Fig6Config.Negation, maps k to
	// the maximum disclosure against k negated atoms — the "analogous
	// graph for negation statements" the paper reports plotting but does
	// not show (§4).
	Negation map[int]float64
}

// Fig6Config parameterizes the sweep.
type Fig6Config struct {
	// Ks are the knowledge bounds; nil means DefaultFig6Ks.
	Ks []int
	// Negation additionally computes the negated-atom disclosure per node.
	Negation bool
	// Workers bounds the goroutines sweeping lattice nodes; values below 1
	// mean one worker per CPU core. The result is identical at every worker
	// count — nodes are gathered by lattice position before the final
	// entropy sort.
	Workers int
	// Engine, when non-nil, supplies the MINIMIZE1 memo the sweep shares
	// across nodes — letting callers bound its bytes (core.EngineConfig) or
	// inspect hit rates afterwards. Nil uses the sweep's problem-scoped
	// engine (default-bounded).
	Engine *core.Engine
}

// Fig6Result holds the full sweep over all 72 generalizations of the Adult
// quasi-identifiers.
type Fig6Result struct {
	Ks []int
	// Points is sorted by increasing MinEntropy.
	Points []Fig6Point
}

// RunFig6 reproduces Figure 6: for every node of the 6×3×2×2 lattice it
// computes the minimum sensitive-attribute entropy over buckets and the
// maximum disclosure for each k. The paper's plotted quantity
// w(T(h), k) — the least maximum disclosure among tables with minimum
// entropy h — is recovered by Envelope.
func RunFig6(tab *table.Table, ks []int) (*Fig6Result, error) {
	return RunFig6Config(tab, Fig6Config{Ks: ks})
}

// RunFig6Config is RunFig6 with the full configuration.
func RunFig6Config(tab *table.Table, cfg Fig6Config) (*Fig6Result, error) {
	ks := cfg.Ks
	if len(ks) == 0 {
		ks = DefaultFig6Ks
	}
	maxK := 0
	for _, k := range ks {
		if k < 0 {
			return nil, fmt.Errorf("experiments: negative k %d", k)
		}
		maxK = max(maxK, k)
	}
	p, err := anonymize.NewProblem(tab, adult.Hierarchies(), adult.QuasiIdentifiers())
	if err != nil {
		return nil, fmt.Errorf("experiments: fig6: %w", err)
	}
	engine := cfg.Engine
	if engine == nil {
		engine = p.Engine()
	}
	res := &Fig6Result{Ks: append([]int(nil), ks...)}
	// Sweep the 72 generalizations on all workers: every node's bucketize +
	// max-disclosure series is independent (the engine's MINIMIZE1 memo and
	// the problem's bucketization cache are concurrency-safe and shared, so
	// repeated histograms across nodes are still computed once). Points land
	// in lattice order before the entropy sort, keeping the result identical
	// to the serial sweep.
	nodes := p.Space().All()
	snap := p.Snapshot()
	// Materialize the whole lattice as one planned sweep first: one base
	// scan at the bottom, everything else coarsened along the derivation
	// DAG through pooled arenas. The per-node loop below then only ever
	// hits the cache; results are byte-identical to bucketizing each node
	// independently.
	if err := snap.MaterializeNodes(nodes); err != nil {
		return nil, fmt.Errorf("experiments: fig6 sweep: %w", err)
	}
	res.Points = make([]Fig6Point, len(nodes))
	err = parallel.ForEach(cfg.Workers, len(nodes), func(i int) error {
		node := nodes[i]
		bz, err := snap.Bucketize(node)
		if err != nil {
			return fmt.Errorf("experiments: fig6 at %v: %w", node, err)
		}
		pt := Fig6Point{
			Node:       node,
			Buckets:    len(bz.Buckets),
			MinEntropy: bz.MinEntropy(),
			Disclosure: make(map[int]float64, len(ks)),
		}
		if cfg.Negation {
			pt.Negation = make(map[int]float64, len(ks))
		}
		// One row pass and one MINIMIZE2 run at the largest k answer every
		// k, each bit-identical to MaxDisclosure at that k.
		series, err := engine.Series(bz, maxK)
		if err != nil {
			return fmt.Errorf("experiments: fig6 at %v: %w", node, err)
		}
		for _, k := range ks {
			pt.Disclosure[k] = series[k]
			if cfg.Negation {
				nd, err := core.NegationMaxDisclosure(bz, k)
				if err != nil {
					return fmt.Errorf("experiments: fig6 negation at %v k=%d: %w", node, k, err)
				}
				pt.Negation[k] = nd
			}
		}
		res.Points[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(res.Points, func(i, j int) bool {
		return res.Points[i].MinEntropy < res.Points[j].MinEntropy
	})
	return res, nil
}

// EnvelopePoint is one (h, w(T(h), k)) pair.
type EnvelopePoint struct {
	MinEntropy float64
	Disclosure float64
}

// Envelope returns, for each distinct minimum-entropy value h, the least
// maximum disclosure among tables whose minimum entropy equals h — the
// paper's w(T(h), k) series.
func (r *Fig6Result) Envelope(k int) []EnvelopePoint {
	return r.envelope(k, func(pt Fig6Point) map[int]float64 { return pt.Disclosure })
}

// NegationEnvelope is Envelope over the negated-atom disclosures; it
// returns nil unless the sweep ran with Fig6Config.Negation.
func (r *Fig6Result) NegationEnvelope(k int) []EnvelopePoint {
	return r.envelope(k, func(pt Fig6Point) map[int]float64 { return pt.Negation })
}

func (r *Fig6Result) envelope(k int, series func(Fig6Point) map[int]float64) []EnvelopePoint {
	var out []EnvelopePoint
	for _, pt := range r.Points {
		d, ok := series(pt)[k]
		if !ok {
			continue
		}
		if n := len(out); n > 0 && out[n-1].MinEntropy == pt.MinEntropy {
			if d < out[n-1].Disclosure {
				out[n-1].Disclosure = d
			}
			continue
		}
		out = append(out, EnvelopePoint{MinEntropy: pt.MinEntropy, Disclosure: d})
	}
	return out
}

// Render writes one row per distinct entropy value with the envelope
// disclosure for every k series.
func (r *Fig6Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure 6: min entropy vs least max disclosure (%d tables)\n\n", len(r.Points)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%10s", "minH"); err != nil {
		return err
	}
	for _, k := range r.Ks {
		if _, err := fmt.Fprintf(w, "  %8s", fmt.Sprintf("k=%d", k)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	envs := make(map[int][]EnvelopePoint, len(r.Ks))
	for _, k := range r.Ks {
		envs[k] = r.Envelope(k)
	}
	if len(r.Ks) == 0 {
		return nil
	}
	for i, pt := range envs[r.Ks[0]] {
		if _, err := fmt.Fprintf(w, "%10.4f", pt.MinEntropy); err != nil {
			return err
		}
		for _, k := range r.Ks {
			if _, err := fmt.Fprintf(w, "  %8.4f", envs[k][i].Disclosure); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits minEntropy plus one disclosure column per k.
func (r *Fig6Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprint(w, "min_entropy"); err != nil {
		return err
	}
	for _, k := range r.Ks {
		if _, err := fmt.Fprintf(w, ",k%d", k); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, pt := range r.Points {
		if _, err := fmt.Fprintf(w, "%g", pt.MinEntropy); err != nil {
			return err
		}
		for _, k := range r.Ks {
			if _, err := fmt.Fprintf(w, ",%g", pt.Disclosure[k]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

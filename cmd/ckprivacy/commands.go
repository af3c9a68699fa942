package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ckprivacy"
)

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var data dataFlags
	data.register(fs)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tab, err := ckprivacy.SyntheticAdult(ckprivacy.AdultConfig{N: data.n, Seed: data.seed})
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return tab.WriteCSV(w)
}

func cmdDisclose(args []string) error {
	fs := flag.NewFlagSet("disclose", flag.ContinueOnError)
	var data dataFlags
	data.register(fs)
	k := fs.Int("k", 3, "background knowledge bound (basic implications)")
	levelsStr := fs.String("levels", "",
		"generalization levels, Attr=level pairs (default: dataset-specific)")
	witness := fs.Bool("witness", false, "print a worst-case knowledge formula")
	crossOnly := fs.Bool("cross-bucket", false,
		"restrict antecedents to other buckets (paper §2.3 variant)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := data.load()
	if err != nil {
		return err
	}
	levels, err := parseLevels(*levelsStr)
	if err != nil {
		return err
	}
	p, bz, err := bucketize(b, levels)
	if err != nil {
		return err
	}
	engine := p.Engine()
	opt := ckprivacy.DisclosureOptions{ForbidSameBucketAntecedent: *crossOnly}
	d, err := engine.MaxDisclosureOpt(bz, *k, opt)
	if err != nil {
		return err
	}
	neg, err := ckprivacy.NegationMaxDisclosure(bz, *k)
	if err != nil {
		return err
	}
	fmt.Printf("tuples:            %d\n", b.Table.Len())
	fmt.Printf("buckets:           %d\n", len(bz.Buckets))
	fmt.Printf("min entropy:       %.4f nats\n", bz.MinEntropy())
	fmt.Printf("max disclosure:    %.6f  (k=%d basic implications)\n", d, *k)
	fmt.Printf("negation variant:  %.6f  (k=%d negated atoms)\n", neg, *k)
	if *witness {
		w, err := engine.Witness(bz, *k, opt, b.Namer())
		if err != nil {
			return err
		}
		fmt.Printf("worst-case target: %s  (bucket %d)\n", w.Target, w.TargetBucket)
		fmt.Printf("worst-case knowledge:\n")
		for _, imp := range w.Implications {
			fmt.Printf("  %s\n", imp)
		}
	}
	return nil
}

func cmdSafe(args []string) error {
	fs := flag.NewFlagSet("safe", flag.ContinueOnError)
	var data dataFlags
	data.register(fs)
	c := fs.Float64("c", 0.7, "disclosure threshold")
	k := fs.Int("k", 3, "background knowledge bound")
	method := fs.String("method", "incognito", "search method: naive | incognito | chain")
	metricName := fs.String("utility", "discernibility", "utility metric: discernibility | avg | buckets")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := data.load()
	if err != nil {
		return err
	}
	o := ckprivacy.DefaultProblemOptions()
	o.Workers = *workers
	p, err := ckprivacy.NewProblemWithOptions(b.Table, b.Hierarchies, b.QI, o)
	if err != nil {
		return err
	}
	crit := p.CKSafety(*c, *k)

	var metric ckprivacy.Metric
	switch *metricName {
	case "discernibility":
		metric = ckprivacy.Discernibility{}
	case "avg":
		metric = ckprivacy.AvgClassSize{}
	case "buckets":
		metric = ckprivacy.BucketCount{}
	default:
		return fmt.Errorf("unknown utility metric %q", *metricName)
	}

	var nodes []ckprivacy.Node
	var stats ckprivacy.SearchStats
	switch *method {
	case "naive":
		nodes, stats, err = p.MinimalSafe(crit)
	case "incognito":
		nodes, stats, err = p.MinimalSafeIncognito(crit)
	case "chain":
		var node ckprivacy.Node
		var ok bool
		node, ok, stats, err = p.ChainSearch(crit)
		if err == nil && ok {
			nodes = []ckprivacy.Node{node}
		}
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	if err != nil {
		return err
	}
	fmt.Printf("criterion:   %s\n", crit.Name())
	fmt.Printf("method:      %s (%d checks, %d inferred, %d workers)\n",
		*method, stats.Evaluated, stats.Inferred, p.Workers())
	if len(nodes) == 0 {
		fmt.Println("result:      no safe generalization exists (even fully suppressed)")
		return nil
	}
	fmt.Printf("safe nodes:  %d  (levels over %v)\n", len(nodes), b.QI)
	// Bucket counts, entropies and utilities read only histograms, so the
	// nodes the search cached are read without row ids.
	snap := p.Snapshot()
	bzs, err := snap.BucketizeHistograms(nodes)
	if err != nil {
		return err
	}
	for i, n := range nodes {
		fmt.Printf("  %v  buckets=%d minEntropy=%.3f\n", n, len(bzs[i].Buckets), bzs[i].MinEntropy())
	}
	idx, best, err := snap.BestByUtility(nodes, metric)
	if err != nil {
		return err
	}
	fmt.Printf("best by %s: %v (%d buckets)\n", metric.Name(), nodes[idx], len(best.Buckets))
	return nil
}

func cmdFig5(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ContinueOnError)
	var data dataFlags
	data.register(fs)
	maxK := fs.Int("maxk", 12, "largest knowledge bound")
	asCSV := fs.Bool("as-csv", false, "emit CSV instead of a text table")
	svg := fs.String("svg", "", "also write the figure as an SVG chart to this file")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tab, err := data.loadAdultTable()
	if err != nil {
		return err
	}
	res, err := ckprivacy.RunFig5Config(tab, ckprivacy.Fig5Config{MaxK: *maxK, Workers: *workers})
	if err != nil {
		return err
	}
	if *svg != "" {
		if err := writeSVGFile(*svg, res.WriteSVG); err != nil {
			return err
		}
	}
	if *asCSV {
		return res.WriteCSV(os.Stdout)
	}
	return res.Render(os.Stdout)
}

func cmdFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ContinueOnError)
	var data dataFlags
	data.register(fs)
	ksStr := fs.String("ks", "1,3,5,7,9,11", "comma-separated k series")
	asCSV := fs.Bool("as-csv", false, "emit CSV instead of a text table")
	negation := fs.Bool("negation", false,
		"also compute the negated-atom analogue (unshown in the paper)")
	svg := fs.String("svg", "", "also write the figure as an SVG chart to this file")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tab, err := data.loadAdultTable()
	if err != nil {
		return err
	}
	ks, err := parseKs(*ksStr)
	if err != nil {
		return err
	}
	res, err := ckprivacy.RunFig6Config(tab,
		ckprivacy.Fig6Config{Ks: ks, Negation: *negation, Workers: *workers})
	if err != nil {
		return err
	}
	if *svg != "" {
		if err := writeSVGFile(*svg, res.WriteSVG); err != nil {
			return err
		}
	}
	if *negation && !*asCSV {
		defer func() {
			fmt.Println("\nnegated-atom analogue (least max disclosure per entropy):")
			for _, k := range res.Ks {
				env := res.NegationEnvelope(k)
				last := env[len(env)-1]
				fmt.Printf("  k=%-2d ends at h=%.3f with %.4f\n", k, last.MinEntropy, last.Disclosure)
			}
		}()
	}
	if *asCSV {
		return res.WriteCSV(os.Stdout)
	}
	return res.Render(os.Stdout)
}

func cmdGrid(args []string) error {
	fs := flag.NewFlagSet("grid", flag.ContinueOnError)
	var data dataFlags
	data.register(fs)
	csStr := fs.String("cs", "0.5,0.6,0.7,0.8,0.9", "comma-separated disclosure thresholds")
	ksStr := fs.String("ks", "1,3,5,7,9,11", "comma-separated knowledge bounds")
	asCSV := fs.Bool("as-csv", false, "emit CSV instead of a text table")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := data.load()
	if err != nil {
		return err
	}
	cs, err := parseCs(*csStr)
	if err != nil {
		return err
	}
	ks, err := parseKs(*ksStr)
	if err != nil {
		return err
	}
	res, err := ckprivacy.RunSafetyGrid(b.Table, ckprivacy.GridConfig{
		Cs: cs, Ks: ks, Workers: *workers, Hierarchies: b.Hierarchies, QI: b.QI,
	})
	if err != nil {
		return err
	}
	if *asCSV {
		return res.WriteCSV(os.Stdout)
	}
	return res.Render(os.Stdout)
}

// writeSVGFile writes an SVG chart through the given renderer.
func writeSVGFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdExample(args []string) error {
	fs := flag.NewFlagSet("example", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "permutation seed for the published table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h := ckprivacy.NewHospitalExample()
	if err := h.RenderFigure1(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := h.RenderFigure3(os.Stdout, *seed); err != nil {
		return err
	}
	fmt.Println()

	in, err := h.Instance()
	if err != nil {
		return err
	}
	show := func(desc, target, phi string) error {
		conj, err := ckprivacy.ParseConjunction(phi)
		if err != nil {
			return err
		}
		atom, err := ckprivacy.ParseAtom(target)
		if err != nil {
			return err
		}
		p, err := in.CondProb(atom, conj)
		if err != nil {
			return err
		}
		f, _ := p.Float64()
		fmt.Printf("%-58s = %s ≈ %.4f\n", desc, p.RatString(), f)
		return nil
	}
	if err := show("Pr(Ed has lung-cancer)", "t[Ed]=lung-cancer", ""); err != nil {
		return err
	}
	if err := show("Pr(Ed has lung-cancer | Ed lacks mumps)",
		"t[Ed]=lung-cancer", "t[Ed]=mumps -> t[Ed]=flu"); err != nil {
		return err
	}
	if err := show("Pr(Ed has lung-cancer | Ed lacks mumps and flu)",
		"t[Ed]=lung-cancer",
		"t[Ed]=mumps -> t[Ed]=flu; t[Ed]=flu -> t[Ed]=mumps"); err != nil {
		return err
	}
	if err := show("Pr(Charlie has flu | Hannah flu ⇒ Charlie flu)",
		"t[Charlie]=flu", "t[Hannah]=flu -> t[Charlie]=flu"); err != nil {
		return err
	}

	bz, err := h.Bucketize()
	if err != nil {
		return err
	}
	engine := ckprivacy.NewEngine()
	fmt.Println()
	for k := 0; k <= 2; k++ {
		d, err := engine.MaxDisclosure(bz, k)
		if err != nil {
			return err
		}
		fmt.Printf("max disclosure, k=%d implications                    = %.6f\n", k, d)
	}
	cross, err := engine.MaxDisclosureOpt(bz, 1, ckprivacy.DisclosureOptions{ForbidSameBucketAntecedent: true})
	if err != nil {
		return err
	}
	fmt.Printf("max disclosure, k=1 cross-bucket only (paper's 10/19) = %.6f\n", cross)
	return nil
}

package ckprivacy_test

import (
	"fmt"
	"math/big"

	"ckprivacy"
)

// The paper's Figure 3 release: two buckets of five patients.
func fig3Example() *ckprivacy.Bucketization {
	return ckprivacy.FromValues(
		[]string{"flu", "flu", "lung-cancer", "lung-cancer", "mumps"},
		[]string{"flu", "flu", "breast-cancer", "ovarian-cancer", "heart-disease"},
	)
}

func ExampleMaxDisclosure() {
	bz := fig3Example()
	for k := 0; k <= 2; k++ {
		d, err := ckprivacy.MaxDisclosure(bz, k)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("k=%d: %.4f\n", k, d)
	}
	// Output:
	// k=0: 0.4000
	// k=1: 0.6667
	// k=2: 1.0000
}

func ExampleEngine_Witness() {
	engine := ckprivacy.NewEngine()
	w, err := engine.Witness(fig3Example(), 1, ckprivacy.DisclosureOptions{}, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("disclosure %.4f targeting %s\n", w.Disclosure, w.Target)
	fmt.Println("knowledge:", w.Implications[0])
	// Output:
	// disclosure 0.6667 targeting t[0]=flu
	// knowledge: t[0]=lung-cancer -> t[0]=flu
}

func ExampleEngine_IsCKSafeExact() {
	engine := ckprivacy.NewEngine()
	bz := fig3Example()
	// The exact maximum at k=1 is 2/3; a strict threshold exactly there is
	// unsafe, one epsilon above is safe.
	at, _ := engine.IsCKSafeExact(bz, big.NewRat(2, 3), 1)
	above, _ := engine.IsCKSafeExact(bz, big.NewRat(667, 1000), 1)
	fmt.Println(at, above)
	// Output: false true
}

func ExampleEngine_TargetedMaxDisclosure() {
	engine := ckprivacy.NewEngine()
	// Worst case specifically for mumps in the male bucket.
	d, err := engine.TargetedMaxDisclosure(fig3Example(), 0, "mumps", 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%.4f\n", d)
	// Output: 0.3333
}

func ExampleParseConjunction() {
	phi, err := ckprivacy.ParseConjunction("t[Hannah]=flu -> t[Charlie]=flu; t[Ed]=mumps -> t[Ed]=flu")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(len(phi), "implications")
	fmt.Println(phi[0])
	// Output:
	// 2 implications
	// t[Hannah]=flu -> t[Charlie]=flu
}

func ExampleUniverse_Express() {
	// Theorem 3: any predicate over tables is a conjunction of basic
	// implications.
	u := ckprivacy.Universe{Persons: []string{"p", "q"}, Values: []string{"a", "b"}}
	phi, err := u.Express(func(w ckprivacy.Assignment) bool { return w["p"] != w["q"] })
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("models:", u.Models(phi))
	// Output: models: 2
}

// streamSchema is a tiny two-column schema for the append example.
func streamSchema() (*ckprivacy.Schema, ckprivacy.Hierarchies) {
	s, err := ckprivacy.NewSchema([]ckprivacy.Attribute{
		{Name: "Age", Kind: ckprivacy.Numeric, Min: 0, Max: 99},
		{Name: "Disease", Kind: ckprivacy.Categorical,
			Domain: []string{"flu", "mumps", "gout"}},
	}, "Disease")
	if err != nil {
		panic(err)
	}
	age, err := ckprivacy.NewIntervalHierarchy("Age", []int{1, 10, 0})
	if err != nil {
		panic(err)
	}
	return s, ckprivacy.Hierarchies{"Age": age}
}

func ExampleProblem_Append() {
	s, hs := streamSchema()
	tab := ckprivacy.NewTable(s)
	for _, r := range []ckprivacy.Row{{"23", "flu"}, {"27", "mumps"}, {"31", "flu"}} {
		tab.MustAppend(r)
	}
	p, err := ckprivacy.NewProblem(tab, hs, []string{"Age"})
	if err != nil {
		fmt.Println(err)
		return
	}

	// Pin version 1: this snapshot keeps answering over the original
	// three rows no matter how the problem grows.
	snap := p.Snapshot()

	res, err := p.Append([]ckprivacy.Row{{"24", "gout"}, {"65", "flu"}})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("version %d, rows %d\n", res.Version, res.Rows)
	fmt.Printf("pinned snapshot: version %d, rows %d\n", snap.Version(), snap.Rows())

	// Searches on the problem use the current version; searches on the
	// snapshot use the pinned one.
	node, ok, _, err := p.ChainSearch(p.CKSafety(0.9, 1))
	if err != nil || !ok {
		fmt.Println(ok, err)
		return
	}
	fmt.Println("safe node on v2:", node)
	// Output:
	// version 2, rows 5
	// pinned snapshot: version 1, rows 3
	// safe node on v2: [2]
}

func ExampleNegationMaxDisclosure() {
	bz := fig3Example()
	d, err := ckprivacy.NegationMaxDisclosure(bz, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%.4f\n", d) // the ℓ-diversity adversary
	// Output: 0.6667
}

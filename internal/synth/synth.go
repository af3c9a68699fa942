// Package synth generates ACS-style synthetic microdata at configurable
// scale: census-flavored columns (age, region, education, occupation)
// with tunable cardinalities and value skew, sampled from a seeded stream
// so the same configuration always yields the same table — row for row —
// no matter how the stream is batched. It exists to exercise the
// million-row paths (sharded bucketization, streaming appends, the
// loadtest harness) that the 45k-row Adult table cannot stress.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/dataload"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// Defaults for zero Config fields.
const (
	DefaultRows        = 100_000
	DefaultRegions     = 51 // states + DC, ACS-style
	DefaultAgeMax      = 95
	DefaultOccupations = 25
	DefaultSkew        = 1.07
)

// regionsPerDivision groups regions into census-division-style parents at
// hierarchy level 1.
const regionsPerDivision = 5

// Config parameterizes generation. The zero value means the defaults
// above; every field is validated by New.
type Config struct {
	// Rows is the total number of rows the generator emits.
	Rows int
	// Seed drives the deterministic sampler; equal seeds (with equal
	// remaining fields) yield identical tables.
	Seed int64
	// Regions is the cardinality of the Region attribute.
	Regions int
	// AgeMax bounds the Age attribute (inclusive; minimum age is 0).
	AgeMax int
	// Occupations is the cardinality of the sensitive Occupation
	// attribute.
	Occupations int
	// Skew is the power-law exponent of the categorical samplers: value i
	// is drawn with weight (i+1)^-Skew; larger means a heavier head. 0
	// means DefaultSkew, not uniform; a tiny positive skew such as 1e-9
	// gives a near-uniform draw. The occupation distribution is
	// additionally rotated per education group, so coarse buckets get
	// distinct skewed histograms — the shape the disclosure checks
	// exercise.
	Skew float64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Rows == 0 {
		c.Rows = DefaultRows
	}
	if c.Regions == 0 {
		c.Regions = DefaultRegions
	}
	if c.AgeMax == 0 {
		c.AgeMax = DefaultAgeMax
	}
	if c.Occupations == 0 {
		c.Occupations = DefaultOccupations
	}
	if c.Skew == 0 {
		c.Skew = DefaultSkew
	}
	return c
}

// educations is the fixed Education domain (level 1 groups it into
// NoDegree / College / Advanced).
var educations = []string{
	"LessThanHS", "HSGrad", "SomeCollege", "Associate",
	"Bachelor", "Master", "Professional", "Doctorate",
}

// eduGroup maps an education index to its level-1 group label.
func eduGroup(i int) string {
	switch {
	case i < 2:
		return "NoDegree"
	case i < 5:
		return "College"
	default:
		return "Advanced"
	}
}

// Generator emits the configured table as a deterministic row stream.
// Rows come off one seeded source in order, so splitting the stream into
// different Next batch sizes cannot change any row.
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	emitted int

	schema  *table.Schema
	regions []string
	regionW *weighted
	occW    *weighted
	eduW    *weighted
}

// New validates the configuration and returns a generator positioned at
// row 0.
func New(cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	if cfg.Rows < 0 {
		return nil, fmt.Errorf("synth: negative row count %d", cfg.Rows)
	}
	if cfg.Regions < 2 {
		return nil, fmt.Errorf("synth: need at least 2 regions, got %d", cfg.Regions)
	}
	if cfg.AgeMax < 1 {
		return nil, fmt.Errorf("synth: need AgeMax >= 1, got %d", cfg.AgeMax)
	}
	if cfg.Occupations < 2 {
		return nil, fmt.Errorf("synth: need at least 2 occupations, got %d", cfg.Occupations)
	}
	if cfg.Skew < 0 {
		return nil, fmt.Errorf("synth: negative skew %g", cfg.Skew)
	}
	g := &Generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		regions: regionNames(cfg.Regions),
		regionW: newWeighted(powerWeights(cfg.Regions, cfg.Skew)),
		occW:    newWeighted(powerWeights(cfg.Occupations, cfg.Skew)),
		eduW:    newWeighted(powerWeights(len(educations), cfg.Skew/2)),
	}
	s, err := table.NewSchema(attributes(cfg, g.regions), "Occupation")
	if err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	g.schema = s
	return g, nil
}

// Config returns the generator's resolved configuration.
func (g *Generator) Config() Config { return g.cfg }

// Schema returns the generated table's schema (Age, Region, Education;
// Occupation sensitive).
func (g *Generator) Schema() *table.Schema { return g.schema }

// Remaining reports how many rows the stream has left.
func (g *Generator) Remaining() int { return g.cfg.Rows - g.emitted }

// Next emits the next batch of up to n rows, nil once the stream is
// exhausted. The concatenation of all batches is independent of the batch
// sizes requested.
func (g *Generator) Next(n int) []table.Row {
	if n > g.Remaining() {
		n = g.Remaining()
	}
	if n <= 0 {
		return nil
	}
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = g.row()
	}
	g.emitted += len(rows)
	return rows
}

// row samples one row. Age rises then decays like a population pyramid;
// occupation skew is rotated by the education group so distinct coarse
// buckets carry distinct sensitive histograms.
func (g *Generator) row() table.Row {
	age := g.sampleAge()
	region := g.regions[g.regionW.sample(g.rng)]
	edu := g.eduW.sample(g.rng)
	occ := g.occW.sample(g.rng)
	switch eduGroup(edu) {
	case "College":
		occ = (occ + g.cfg.Occupations/3) % g.cfg.Occupations
	case "Advanced":
		occ = (occ + 2*g.cfg.Occupations/3) % g.cfg.Occupations
	}
	return table.Row{
		strconv.Itoa(age),
		region,
		educations[edu],
		fmt.Sprintf("occ%02d", occ),
	}
}

// sampleAge draws from a triangular-ish profile over [0, AgeMax] peaking
// around 40% of the range.
func (g *Generator) sampleAge() int {
	peak := float64(g.cfg.AgeMax) * 0.4
	u := g.rng.Float64()
	v := g.rng.Float64()
	a := peak * u
	b := peak + (float64(g.cfg.AgeMax)-peak)*v
	if g.rng.Float64() < 0.55 {
		return int(b)
	}
	return int(a)
}

// Table generates the full configured table in one call.
func (g *Generator) Table() (*table.Table, error) {
	t := table.New(g.schema)
	t.Rows = make([]table.Row, 0, g.Remaining())
	for {
		batch := g.Next(1 << 16)
		if batch == nil {
			return t, nil
		}
		for _, r := range batch {
			if err := t.Append(r); err != nil {
				return nil, fmt.Errorf("synth: generated invalid row: %w", err)
			}
		}
	}
}

// attributes builds the schema columns for a configuration.
func attributes(cfg Config, regions []string) []table.Attribute {
	return []table.Attribute{
		{Name: "Age", Kind: table.Numeric, Min: 0, Max: cfg.AgeMax},
		{Name: "Region", Kind: table.Categorical, Domain: regions},
		{Name: "Education", Kind: table.Categorical, Domain: educations},
		{Name: "Occupation", Kind: table.Categorical, Domain: occupationNames(cfg.Occupations)},
	}
}

// regionNames enumerates the Region domain ("R00", "R01", ...).
func regionNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("R%02d", i)
	}
	return names
}

// occupationNames enumerates the Occupation domain.
func occupationNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("occ%02d", i)
	}
	return names
}

// Hierarchies returns the generalization hierarchies matching a
// configuration: Age in 1/5/25-wide intervals then suppressed, Region
// grouped into divisions of 5 then suppressed, Education grouped into
// degree tiers then suppressed.
func Hierarchies(cfg Config) hierarchy.Set {
	cfg = cfg.withDefaults()
	regions := regionNames(cfg.Regions)
	regionL1 := make(map[string]string, len(regions))
	regionL2 := make(map[string]string, len(regions))
	for i, r := range regions {
		regionL1[r] = fmt.Sprintf("D%02d", i/regionsPerDivision)
		regionL2[r] = hierarchy.Suppressed
	}
	eduL1 := make(map[string]string, len(educations))
	eduL2 := make(map[string]string, len(educations))
	for i, e := range educations {
		eduL1[e] = eduGroup(i)
		eduL2[e] = hierarchy.Suppressed
	}
	return hierarchy.Set{
		"Age":       hierarchy.MustInterval("Age", []int{1, 5, 25, 0}),
		"Region":    hierarchy.MustLevelled("Region", regions, []map[string]string{regionL1, regionL2}),
		"Education": hierarchy.MustLevelled("Education", educations, []map[string]string{eduL1, eduL2}),
	}
}

// QI returns the quasi-identifier names in lattice order.
func QI() []string { return []string{"Age", "Region", "Education"} }

// DefaultLevels is a mid-lattice generalization useful for one-shot
// disclosure queries on synthetic tables.
func DefaultLevels() bucket.Levels {
	return bucket.Levels{"Age": 2, "Region": 1, "Education": 1}
}

// Bundle generates the full table and wraps it with the matching
// hierarchies as a ready-to-analyze dataset bundle.
func Bundle(cfg Config) (*dataload.Bundle, error) {
	g, err := New(cfg)
	if err != nil {
		return nil, err
	}
	tab, err := g.Table()
	if err != nil {
		return nil, err
	}
	return &dataload.Bundle{
		Name:          "synth",
		Table:         tab,
		Hierarchies:   Hierarchies(g.cfg),
		QI:            QI(),
		DefaultLevels: DefaultLevels(),
	}, nil
}

// Spec renders a configuration plus a pregenerated row batch as the
// declarative dataset description the daemon's registration endpoint
// accepts (dataload.Spec is the wire format). The batch usually comes
// from Next so the remaining stream can be appended afterwards.
func Spec(cfg Config, rows []table.Row) dataload.Spec {
	cfg = cfg.withDefaults()
	regions := regionNames(cfg.Regions)
	regionL1 := make(map[string]string, len(regions))
	regionL2 := make(map[string]string, len(regions))
	for i, r := range regions {
		regionL1[r] = fmt.Sprintf("D%02d", i/regionsPerDivision)
		regionL2[r] = hierarchy.Suppressed
	}
	eduL1 := make(map[string]string, len(educations))
	eduL2 := make(map[string]string, len(educations))
	for i, e := range educations {
		eduL1[e] = eduGroup(i)
		eduL2[e] = hierarchy.Suppressed
	}
	var csv strings.Builder
	csv.WriteString("Age,Region,Education,Occupation\n")
	for _, r := range rows {
		csv.WriteString(strings.Join(r, ","))
		csv.WriteByte('\n')
	}
	return dataload.Spec{
		Attributes: []dataload.AttrSpec{
			{Name: "Age", Kind: "numeric", Min: 0, Max: cfg.AgeMax},
			{Name: "Region", Kind: "categorical", Domain: regions},
			{Name: "Education", Kind: "categorical", Domain: educations},
			{Name: "Occupation", Kind: "categorical", Domain: occupationNames(cfg.Occupations)},
		},
		Sensitive: "Occupation",
		Hierarchies: []dataload.HierarchySpec{
			{Attribute: "Age", Kind: "interval", Widths: []int{1, 5, 25, 0}},
			{Attribute: "Region", Kind: "levels", Levels: []map[string]string{regionL1, regionL2}},
			{Attribute: "Education", Kind: "levels", Levels: []map[string]string{eduL1, eduL2}},
		},
		QI:            QI(),
		CSV:           csv.String(),
		DefaultLevels: DefaultLevels(),
	}
}

// weighted samples indexes proportionally to fixed weights via binary
// search over the cumulative distribution.
type weighted struct {
	cum []float64
}

func newWeighted(w []float64) *weighted {
	cum := make([]float64, len(w))
	total := 0.0
	for i, x := range w {
		total += x
		cum[i] = total
	}
	return &weighted{cum: cum}
}

func (w *weighted) sample(rng *rand.Rand) int {
	x := rng.Float64() * w.cum[len(w.cum)-1]
	return sort.SearchFloat64s(w.cum, x)
}

// powerWeights returns (i+1)^-skew for i in [0, n) — Zipf-like head
// weight; skew 0 is uniform.
func powerWeights(n int, skew float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -skew)
	}
	return w
}

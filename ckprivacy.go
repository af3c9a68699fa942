package ckprivacy

import (
	"io"
	"math/big"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataset/adult"
	"ckprivacy/internal/experiments"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/logic"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/table"
	"ckprivacy/internal/utility"
	"ckprivacy/internal/worlds"
)

// Relational substrate.
type (
	// Table is a row-oriented relation with one sensitive attribute.
	Table = table.Table
	// Schema describes a table's attributes.
	Schema = table.Schema
	// Attribute is one column description.
	Attribute = table.Attribute
	// Row is one tuple in schema order.
	Row = table.Row
	// ValueCount pairs a sensitive value with its multiplicity.
	ValueCount = table.ValueCount
)

// Attribute kinds.
const (
	Categorical = table.Categorical
	Numeric     = table.Numeric
)

// NewSchema builds a validated schema; sensitive names the sensitive
// attribute.
func NewSchema(attrs []Attribute, sensitive string) (*Schema, error) {
	return table.NewSchema(attrs, sensitive)
}

// NewTable creates an empty table over the schema.
func NewTable(s *Schema) *Table { return table.New(s) }

// ReadCSV loads a table written by Table.WriteCSV.
func ReadCSV(r io.Reader, s *Schema) (*Table, error) { return table.ReadCSV(r, s) }

// Generalization hierarchies.
type (
	// Hierarchy generalizes one attribute through numbered levels.
	Hierarchy = hierarchy.Hierarchy
	// Hierarchies maps attribute names to hierarchies.
	Hierarchies = hierarchy.Set
)

// Suppressed is the fully suppressed value "*".
const Suppressed = hierarchy.Suppressed

// NewIntervalHierarchy builds a zero-anchored interval hierarchy for
// integer attributes; widths start at 1 and may end with 0 (suppression).
func NewIntervalHierarchy(name string, widths []int) (Hierarchy, error) {
	return hierarchy.NewInterval(name, widths)
}

// NewSuppressionHierarchy builds the two-level identity/"*" hierarchy.
func NewSuppressionHierarchy(name string, domain []string) Hierarchy {
	return hierarchy.NewSuppression(name, domain)
}

// NewLevelledHierarchy builds a categorical hierarchy from explicit
// per-level maps over the domain.
func NewLevelledHierarchy(name string, domain []string, levelMaps []map[string]string) (Hierarchy, error) {
	return hierarchy.NewLevelled(name, domain, levelMaps)
}

// Bucketization (the sanitization method the paper analyzes).
type (
	// Bucketization is a partition of tuples with per-bucket
	// sensitive-value histograms. Treat it as immutable: once it has been
	// passed to any disclosure or stats call, do not modify Buckets (no
	// bucket replaced, appended or removed), because it caches state
	// derived from them (its histogram classes and MinEntropy). Build a
	// new one with FromValues or Bucketize instead.
	Bucketization = bucket.Bucketization
	// Bucket is one block of the partition.
	Bucket = bucket.Bucket
	// Levels assigns a generalization level per attribute name.
	Levels = bucket.Levels
)

// FromValues builds a bucketization directly from per-bucket sensitive
// value multisets (person ids are assigned 0,1,2,… across buckets).
func FromValues(groups ...[]string) *Bucketization { return bucket.FromValues(groups...) }

// Bucketize partitions a table by its quasi-identifiers generalized to the
// given levels (missing attributes stay at level 0). It encodes the table,
// compiles the hierarchies and scans once; a table value a hierarchy does
// not cover, or hierarchy levels that are not nested, are errors naming
// the attribute. To bucketize one table at many levels, build a Problem:
// it encodes and compiles once, caches every bucketization it derives,
// and patches them on Append.
func Bucketize(t *Table, hs Hierarchies, levels Levels) (*Bucketization, error) {
	return bucket.Bucketize(t, hs, levels)
}

// Worst-case disclosure (the paper's core contribution).
type (
	// Engine computes disclosure, reading each bucket's MINIMIZE1 row
	// from the bucket when an earlier call published it there and
	// counting the rows it reads and builds.
	Engine = core.Engine
	// EngineCacheStats snapshots an engine's row hits and misses.
	EngineCacheStats = core.CacheStats
	// DisclosureOptions tunes MaxDisclosure variants.
	DisclosureOptions = core.Options
	// Witness is an explicit worst-case knowledge formula.
	Witness = core.Witness
	// NegationWitness is a worst-case set of negated atoms.
	NegationWitness = core.NegationWitness
	// Risk is one entry of a per-target risk profile.
	Risk = core.Risk
	// WeightFunc assigns sensitivity weights to sensitive values for
	// cost-based disclosure.
	WeightFunc = core.WeightFunc
)

// ConstWeight weights every sensitive value equally.
func ConstWeight(w float64) WeightFunc { return core.ConstWeight(w) }

// NewEngine returns a disclosure engine whose counters are zero.
func NewEngine() *Engine { return core.NewEngine() }

// MaxDisclosure computes the maximum disclosure of the bucketization with
// respect to k basic implications of background knowledge (Definition 6),
// in O(|B|·k³) time.
func MaxDisclosure(bz *Bucketization, k int) (float64, error) { return core.MaxDisclosure(bz, k) }

// NegationMaxDisclosure computes the maximum disclosure against k negated
// atoms (the ℓ-diversity adversary; always at most MaxDisclosure).
func NegationMaxDisclosure(bz *Bucketization, k int) (float64, error) {
	return core.NegationMaxDisclosure(bz, k)
}

// ExactNegationMaxDisclosure is NegationMaxDisclosure in exact rational
// arithmetic (see Engine.ExactMaxDisclosure and Engine.IsCKSafeExact for
// the implication-language counterparts).
func ExactNegationMaxDisclosure(bz *Bucketization, k int) (*big.Rat, error) {
	return core.ExactNegationMaxDisclosure(bz, k)
}

// Knowledge language.
type (
	// Atom is the formula t_p[S] = s.
	Atom = logic.Atom
	// BasicImplication is (∧ atoms) → (∨ atoms).
	BasicImplication = logic.BasicImplication
	// SimpleImplication is atom → atom.
	SimpleImplication = logic.SimpleImplication
	// Conjunction is a conjunction of basic implications (a sentence of
	// L^k_basic when it has k conjuncts).
	Conjunction = logic.Conjunction
	// Universe supports the Theorem 3 completeness construction.
	Universe = logic.Universe
	// Assignment maps persons to sensitive values (one possible world).
	Assignment = logic.Assignment
)

// ParseConjunction parses a ";"-separated conjunction of implications in
// the concrete syntax "t[Hannah]=flu -> t[Charlie]=flu".
func ParseConjunction(s string) (Conjunction, error) { return logic.ParseConjunction(s) }

// ParseAtom parses an atom in the concrete syntax "t[Ed]=flu".
func ParseAtom(s string) (Atom, error) { return logic.ParseAtom(s) }

// Exact oracle (exponential time; for small instances and validation).
type (
	// WorldsInstance enumerates all tables consistent with a
	// bucketization and answers exact probability queries.
	WorldsInstance = worlds.Instance
	// WorldsBucket pairs persons with a bucket's value multiset.
	WorldsBucket = worlds.Bucket
	// BruteOptions bounds the oracle's exponential searches.
	BruteOptions = worlds.BruteOptions
	// Estimate is a Monte-Carlo conditional-probability estimate for one
	// specific knowledge formula (exact evaluation is #P-complete).
	Estimate = worlds.Estimate
)

// NewWorldsInstance validates and builds an exact-oracle instance.
func NewWorldsInstance(buckets ...WorldsBucket) (WorldsInstance, error) {
	return worlds.New(buckets...)
}

// WorldsFromBucketization converts a bucketization (with source table)
// into an exact-oracle instance; name maps tuple ids to person names.
func WorldsFromBucketization(bz *Bucketization, name func(int) string) (WorldsInstance, error) {
	return worlds.FromBucketization(bz, name)
}

// Privacy criteria.
type (
	// Criterion is a monotone predicate over bucketizations.
	Criterion = privacy.Criterion
	// KAnonymity requires buckets of size at least K.
	KAnonymity = privacy.KAnonymity
	// DistinctLDiversity requires L distinct sensitive values per bucket.
	DistinctLDiversity = privacy.DistinctLDiversity
	// EntropyLDiversity requires bucket entropy at least ln L.
	EntropyLDiversity = privacy.EntropyLDiversity
	// RecursiveCLDiversity is recursive (c,ℓ)-diversity.
	RecursiveCLDiversity = privacy.RecursiveCLDiversity
	// CKSafety is the paper's Definition 13.
	CKSafety = privacy.CKSafety
	// NegationCKSafety bounds disclosure against negated atoms only.
	NegationCKSafety = privacy.NegationCKSafety
)

// Lattice search.
type (
	// Problem is an anonymization task over a table, hierarchies and
	// quasi-identifiers.
	Problem = anonymize.Problem
	// ProblemOptions configures a Problem: its search worker budget.
	// Build from DefaultProblemOptions and override fields.
	ProblemOptions = anonymize.Options
	// Node is a generalization level per quasi-identifier.
	Node = lattice.Node
	// Space is the full-domain generalization lattice.
	Space = lattice.Space
	// SearchStats reports search effort.
	SearchStats = lattice.Stats
)

// DefaultProblemOptions returns the configuration NewProblem uses: serial
// search.
func DefaultProblemOptions() ProblemOptions { return anonymize.DefaultOptions() }

// NewProblem validates an anonymization task with the default options;
// qi fixes the lattice's dimension order. The table is dictionary-encoded
// once and the hierarchies are compiled over it: a table value a
// hierarchy does not cover, or hierarchy levels that are not nested, are
// errors naming the attribute.
func NewProblem(t *Table, hs Hierarchies, qi []string) (*Problem, error) {
	return anonymize.NewProblem(t, hs, qi)
}

// NewProblemWithOptions is NewProblem with an explicit configuration:
// ProblemOptions.Workers is the lattice searches' worker budget (each
// level of the generalization lattice is safety-checked on up to that
// many goroutines; <= 0 means one per CPU core). The nodes returned by
// every search are byte-identical at every worker count, and the
// level-wise searches (MinimalSafe, MinimalSafeIncognito) also report
// identical SearchStats; ChainSearch's multi-section variant probes
// different chain positions per round, so its Evaluated count varies with
// the budget.
func NewProblemWithOptions(t *Table, hs Hierarchies, qi []string, o ProblemOptions) (*Problem, error) {
	return anonymize.NewProblemWithOptions(t, hs, qi, o)
}

// ProblemEncoding describes a problem's columnar state: the
// per-attribute dictionary cardinalities.
type ProblemEncoding = anonymize.EncodingInfo

// ProblemSnapshot is one pinned version of a Problem: every Bucketize
// and search on it computes over exactly the rows, dictionaries and warm
// caches of that version, regardless of concurrent Appends. Obtain one
// with Problem.Snapshot.
type ProblemSnapshot = anonymize.Snapshot

// ProblemAppendResult reports what one Problem.Append changed: the new
// version, where the appended rows start, per-attribute new dictionary
// codes, and how many warm cache entries were patched vs invalidated.
type ProblemAppendResult = anonymize.AppendResult

// SweepStats snapshots a Problem's cumulative sweep-planner counters:
// planned sweeps and DAG nodes, how each node was materialized (base
// scan, coarsened, reused), and the cost model's predicted vs actual
// bucket counts. Obtain one with Problem.SweepStats.
type SweepStats = anonymize.SweepStats

// Utility metrics.
type (
	// Metric scores bucketizations (higher is better).
	Metric = utility.Metric
	// Discernibility is the negated discernibility metric.
	Discernibility = utility.Discernibility
	// AvgClassSize is the negated average bucket size.
	AvgClassSize = utility.AvgClassSize
	// BucketCount counts buckets (finer is better).
	BucketCount = utility.BucketCount
)

// Synthetic Adult dataset (substitute for the UCI file; see "Deviations
// from the paper" in docs/PAPER-MAP.md).
type AdultConfig = adult.Config

// SyntheticAdult generates the deterministic synthetic Adult table
// (Age, MaritalStatus, Race, Sex, Occupation; Occupation sensitive).
func SyntheticAdult(cfg AdultConfig) (*Table, error) { return adult.Generate(cfg) }

// AdultSchema returns the five-attribute Adult schema.
func AdultSchema() *Schema { return adult.Schema() }

// AdultHierarchies returns the paper's 6/3/2/2-level hierarchies.
func AdultHierarchies() Hierarchies { return adult.Hierarchies() }

// AdultQI returns the quasi-identifier names in lattice order.
func AdultQI() []string { return adult.QuasiIdentifiers() }

// AdultDefaultN is the paper's cleaned dataset size, 45,222.
const AdultDefaultN = adult.DefaultN

// Experiments (regeneration of the paper's figures).
type (
	// Fig5Result holds Figure 5's two disclosure curves.
	Fig5Result = experiments.Fig5Result
	// Fig6Result holds the Figure 6 sweep over all 72 generalizations.
	Fig6Result = experiments.Fig6Result
	// HospitalExample is the paper's Figures 1–3 running example.
	HospitalExample = experiments.Hospital
)

// RunFig5 regenerates Figure 5 on an Adult-schema table.
func RunFig5(t *Table, maxK int) (*Fig5Result, error) { return experiments.RunFig5(t, maxK) }

// Fig5Config parameterizes RunFig5Config (knowledge bound and workers).
type Fig5Config = experiments.Fig5Config

// RunFig5Config is RunFig5 with the full configuration.
func RunFig5Config(t *Table, cfg Fig5Config) (*Fig5Result, error) {
	return experiments.RunFig5Config(t, cfg)
}

// RunFig6 regenerates Figure 6 (ks nil means the paper's 1,3,5,7,9,11).
func RunFig6(t *Table, ks []int) (*Fig6Result, error) { return experiments.RunFig6(t, ks) }

// Fig6Config parameterizes RunFig6Config (e.g. the negation analogue).
type Fig6Config = experiments.Fig6Config

// RunFig6Config regenerates Figure 6 with full configuration, including
// the paper's unshown negated-atom analogue.
func RunFig6Config(t *Table, cfg Fig6Config) (*Fig6Result, error) {
	return experiments.RunFig6Config(t, cfg)
}

// NewHospitalExample returns the paper's ten-patient running example.
func NewHospitalExample() *HospitalExample { return experiments.HospitalExample() }

// Policy-grid sweep (a §3.4-style experiment over many (c,k) choices).
type (
	// GridConfig parameterizes a (c,k)-safety policy sweep.
	GridConfig = experiments.GridConfig
	// GridResult holds the sweep; Cells[i][j] is the (Cs[i], Ks[j]) cell.
	GridResult = experiments.GridResult
	// GridCell is one (c,k) policy's outcome.
	GridCell = experiments.GridCell
)

// RunSafetyGrid finds, for every (c,k) on the grid, the lowest safe node on
// the canonical generalization chain of the Adult lattice, sweeping cells
// on the configured worker budget.
func RunSafetyGrid(t *Table, cfg GridConfig) (*GridResult, error) {
	return experiments.RunSafetyGrid(t, cfg)
}

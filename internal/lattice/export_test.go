package lattice

// Hooks for the external lattice_test package. Its tests compare the
// searches against internal/oracle, which imports this package, so they
// cannot be compiled into package lattice itself.

var (
	GeneratorPred = generatorPred
	WeightedCheck = weightedCheck
	SameNodeSet   = sameNodeSet
)

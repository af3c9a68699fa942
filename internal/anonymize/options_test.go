package anonymize

import (
	"runtime"
	"testing"
)

// hospitalOptions is hospital built through the struct constructor.
func hospitalOptions(t *testing.T, o Options) *Problem {
	t.Helper()
	base := hospital(t)
	p, err := NewProblemWithOptions(base.Table, base.Hierarchies, base.QI, o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOptionsResolution pins the struct-options surface: defaults, the
// per-core resolution of non-positive budgets, the resolved view Options()
// reports, and that NewProblem builds with the defaults.
func TestOptionsResolution(t *testing.T) {
	if d := DefaultOptions(); d.Workers != 1 {
		t.Fatalf("DefaultOptions() = %+v, want the serial defaults", d)
	}

	p := hospitalOptions(t, Options{Workers: 3})
	if got := p.Options(); got.Workers != 3 {
		t.Fatalf("Options() = %+v, want workers 3", got)
	}
	if p.Engine() == nil {
		t.Fatal("problem built without its engine")
	}

	// Non-positive budgets resolve to one per core.
	p = hospitalOptions(t, Options{Workers: 0})
	if got := p.Options(); got.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("Options() = %+v, want per-core budgets (%d)", got, runtime.GOMAXPROCS(0))
	}

	// NewProblem is NewProblemWithOptions at the defaults.
	if got := hospital(t).Options(); got.Workers != 1 {
		t.Fatalf("NewProblem options = %+v, want the defaults", got)
	}
}

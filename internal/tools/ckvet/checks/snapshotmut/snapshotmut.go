// Package snapshotmut pins the repo's shared read-only values as
// actually read-only. These families of values are handed out across
// goroutine and package boundaries with no locks, on the strength of a
// comment that says "immutable after construction":
//
//   - table.Encoded / table.Dict — the append-only master encoding and
//     its dictionary views; Snapshot() returns three-index views into
//     the same backing arrays;
//   - bucket.Bucket — finalized histogram buckets shared by every
//     minimization pass over the same generalization;
//   - bucket.Bucketization — built by the scan, coarsening, append and
//     value-list constructors, then shared; its histogram-class index
//     and cached MinEntropy are valid only while its buckets never
//     change;
//   - anonymize.cacheEntry — a level vector's cache slot: pending while
//     its leader materializes it, then the bucketization served to every
//     later request at that vector;
//   - anonymize.planNode — sweep derivation-DAG nodes, written while a
//     plan is built and then read by concurrent frontier executors.
//
// A field or element write to one of these outside its owning
// constructor file is a data race with every reader that trusted the
// comment — the kind that -race only catches if the scheduler
// cooperates. This analyzer makes the comment mechanical: each pinned
// type lists the one file allowed to mutate it (the file that defines
// its constructors); writes anywhere else are findings.
//
// A "write" is an assignment (including op-assign and append-back) or
// ++/-- whose left side selects a field of a pinned type, or indexes
// into such a field (slice element, map key). Rebinding a whole
// variable (s = other) is not a write to the pinned object and is not
// flagged.
package snapshotmut

import (
	"go/ast"

	"ckprivacy/internal/tools/ckvet/analysis"
)

// Analyzer is the snapshotmut check.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotmut",
	Doc:  "pinned-immutable types may only be mutated in their owning constructor file",
	Run:  run,
}

// pinned maps "pkgName.TypeName" to the base names of the files allowed
// to mutate that type. Keys use the defining package's name, not its
// import path, so analyzer test packages named like the real ones
// exercise identical rules.
var pinned = map[string]map[string]bool{
	"bucket.Bucket": {"bucket.go": true},
	// A bucketization's constructors span four files; the class index
	// (classes.go) and the MinEntropy cache are published through atomic
	// pointers, never by assignment.
	"bucket.Bucketization": {"bucket.go": true, "encoded.go": true, "append.go": true, "arena.go": true},
	"table.Dict":           {"encoded.go": true},
	"table.Encoded":        {"encoded.go": true},
	"anonymize.cacheEntry": {"cache.go": true},
	// The sweep planner's DAG nodes are written only while the plan is
	// built; the executor's concurrent frontier workers read them with
	// no locks.
	"anonymize.planNode": {"plan.go": true},
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		base := baseName(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkWrite(pass, base, lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(pass, base, st.X)
			}
			return true
		})
	}
	return nil, nil
}

// baseName returns the file's base name for allowlist matching.
func baseName(pass *analysis.Pass, file *ast.File) string {
	full := pass.Fset.Position(file.Pos()).Filename
	for i := len(full) - 1; i >= 0; i-- {
		if full[i] == '/' {
			return full[i+1:]
		}
	}
	return full
}

// checkWrite walks the write target's selector/index chain and reports
// if any link selects into a pinned type from a disallowed file.
func checkWrite(pass *analysis.Pass, fileBase string, lhs ast.Expr) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if name := pinnedType(pass, e.X); name != "" && !pinned[name][fileBase] {
				pass.Reportf(lhs.Pos(),
					"write to field %s of pinned-immutable %s outside its constructor file; %s is shared read-only after construction",
					e.Sel.Name, name, name)
				return
			}
			lhs = e.X
		default:
			return
		}
	}
}

// pinnedType returns the "pkg.Type" key when the expression's type
// (pointers unwrapped) is pinned, "" otherwise.
func pinnedType(pass *analysis.Pass, e ast.Expr) string {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return ""
	}
	n := analysis.NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	key := n.Obj().Pkg().Name() + "." + n.Obj().Name()
	if _, ok := pinned[key]; ok {
		return key
	}
	return ""
}

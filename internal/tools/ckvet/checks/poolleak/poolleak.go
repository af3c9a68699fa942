// Package poolleak keeps the sync.Pool fast paths honest. The hot
// loops (bucket scans and coarsening, the two minimization passes) reuse
// scratch buffers through sync.Pool; the contract is strictly
// Get → use → Put on every path. Two failure shapes silently turn the
// optimization into a regression:
//
//   - a return path that skips Put — the buffer is garbage-collected
//     instead of reused, so the pool decays to an allocation per call
//     under exactly the error/early-exit conditions load tests rarely
//     hit;
//   - a pooled value escaping through a return value — the caller now
//     holds memory that a later Put hands to a concurrent Get, aliasing
//     two "owners" of one buffer.
//
// Per function body (closures analyzed as their own scopes), for each
// variable bound from a sync.Pool Get:
//
//   - the value appearing in a return statement is an escape finding;
//   - a deferred Put (directly or inside a deferred closure) covers
//     every path and is clean;
//   - no Put at all is a finding;
//   - only non-deferred Puts: any return that precedes the first Put is
//     a path that leaks, and is a finding (prefer defer).
//
// Deliberate ownership transfer (a helper that returns pooled scratch
// to a caller which carries the Put) is suppressible with
// //ckvet:ignore poolleak <who Puts, and where>.
package poolleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"ckprivacy/internal/tools/ckvet/analysis"
)

// Analyzer is the poolleak check.
var Analyzer = &analysis.Analyzer{
	Name: "poolleak",
	Doc:  "sync.Pool Get must be paired with Put on every path and must not escape via return",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		analysis.FuncBodies(file, func(name string, body *ast.BlockStmt) {
			checkScope(pass, body)
		})
	}
	return nil, nil
}

// pooledVar tracks one variable bound from a pool Get within one scope.
type pooledVar struct {
	obj    types.Object
	getPos token.Pos
}

// checkScope analyzes one function body, not descending into nested
// function literals except through defer statements.
func checkScope(pass *analysis.Pass, body *ast.BlockStmt) {
	var vars []pooledVar
	analysis.InspectNoNestedFuncs(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call := unwrapAssert(as.Rhs[0])
		if call == nil || !isPoolCall(pass, call, "Get") {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			vars = append(vars, pooledVar{obj: obj, getPos: call.Pos()})
		}
		return true
	})
	for _, v := range vars {
		checkVar(pass, body, v)
	}
}

// unwrapAssert returns the call beneath an optional type assertion
// (`pool.Get().(*T)`), or the call itself.
func unwrapAssert(e ast.Expr) *ast.CallExpr {
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, _ := e.(*ast.CallExpr)
	return call
}

// isPoolCall reports whether call invokes the named method on a
// sync.Pool receiver.
func isPoolCall(pass *analysis.Pass, call *ast.CallExpr, method string) bool {
	recv, name := analysis.MethodCall(pass.TypesInfo, call)
	return recv != nil && name == method && analysis.TypeIs(recv, "sync", "Pool")
}

// checkVar applies the path rules to one pooled variable.
func checkVar(pass *analysis.Pass, body *ast.BlockStmt, v pooledVar) {
	var (
		deferredPut bool
		firstPut    = token.Pos(-1)
		escapeAt    = token.Pos(-1)
		leakReturn  = token.Pos(-1)
	)
	analysis.InspectNoNestedFuncs(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.DeferStmt:
			// A deferred Put — direct or wrapped in a closure — covers
			// every return path. ast.Inspect descends into a deferred
			// FuncLit's body, so both shapes are one walk.
			ast.Inspect(st.Call, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && isPoolCall(pass, c, "Put") && usesVar(pass, c, v.obj) {
					deferredPut = true
				}
				return true
			})
			return false
		case *ast.CallExpr:
			if isPoolCall(pass, st, "Put") && usesVar(pass, st, v.obj) {
				if firstPut == token.Pos(-1) || st.Pos() < firstPut {
					firstPut = st.Pos()
				}
			}
		case *ast.ReturnStmt:
			if st.Pos() <= v.getPos {
				return true
			}
			for _, res := range st.Results {
				if exprUsesVar(pass, res, v.obj) && !basicResult(pass, res) {
					escapeAt = st.Pos()
					return true
				}
			}
			if leakReturn == token.Pos(-1) {
				leakReturn = st.Pos()
			}
		}
		return true
	})
	name := v.obj.Name()
	switch {
	case escapeAt != token.Pos(-1):
		pass.Reportf(escapeAt,
			"pooled value %s escapes via return; the pool may hand the same buffer to a concurrent Get", name)
	case deferredPut:
		// Every path covered.
	case firstPut == token.Pos(-1):
		pass.Reportf(v.getPos,
			"sync.Pool Get of %s has no matching Put in this function; defer the Put next to the Get", name)
	case leakReturn != token.Pos(-1) && leakReturn < firstPut:
		pass.Reportf(leakReturn,
			"return path leaks pooled value %s (Put happens later); use a deferred Put", name)
	}
}

// basicResult reports whether the returned expression's type is a basic
// value (int, string, bool, ...): `return buf.Len()` derives a scalar
// from the pooled buffer but cannot carry the buffer itself out.
func basicResult(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Basic)
	return ok
}

// usesVar reports whether any argument of call references obj.
func usesVar(pass *analysis.Pass, call *ast.CallExpr, obj types.Object) bool {
	for _, a := range call.Args {
		if exprUsesVar(pass, a, obj) {
			return true
		}
	}
	return false
}

// exprUsesVar reports whether obj appears anywhere in e.
func exprUsesVar(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

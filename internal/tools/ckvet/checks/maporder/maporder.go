// Package maporder flags the byte-identity killer: iterating a Go map
// and letting the iteration order reach an ordered output — a key list
// appended to a slice that is never sorted, or bytes serialized directly
// from inside the loop. Every performance layer of this repo (columnar
// bucketization, coarsening, appends, the durable snapshot format) is
// specified as byte-identical to a reference path; one unsorted
// `for range m` in a key writer silently breaks that contract on a
// schedule of the runtime's choosing.
//
// The check: for every `for ... range m` where m is a map,
//
//   - an `append` inside the loop body into a slice declared outside the
//     loop is a finding unless the enclosing function also passes that
//     slice to sort.* / slices.Sort* (order restored after collection);
//   - a serialization call inside the loop body (io.Writer /
//     strings.Builder writes, binary.Append*/Put*, fmt.Fprint*, or a
//     local append*-style byte helper) is always a finding — serialized
//     bytes cannot be re-sorted afterwards.
//
// Writes into other maps, counters and error returns are order-free and
// ignored. Where iteration order is provably free, suppress with
// `//ckvet:ignore maporder <reason citing the parity test>`.
package maporder

import (
	"go/ast"
	"go/types"
	"strings"

	"ckprivacy/internal/tools/ckvet/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "map iteration order must not reach slices, key lists or serialized bytes unsorted",
	Run:  run,
}

// sortFuncs names the blessed order-restoring calls: target slice passed
// as the first argument.
var sortFuncs = map[string]map[string]bool{
	"sort":   {"Strings": true, "Ints": true, "Float64s": true, "Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		analysis.EnclosingFuncs(file, func(name string, body *ast.BlockStmt) {
			checkFunc(pass, body)
		})
	}
	return nil, nil
}

// checkFunc scans one top-level function body. The whole body is the
// sort-search scope: a closure may collect keys that the outer function
// sorts.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !analysis.IsMapType(pass.TypesInfo, rs.X) {
			return true
		}
		checkMapRange(pass, body, rs)
		return true
	})
}

// checkMapRange inspects one map-range loop body for order-sensitive
// sinks.
func checkMapRange(pass *analysis.Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Builtin append into a slice declared outside the loop: a key
		// list; needs a sort somewhere in the enclosing function.
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			target := call.Args[0]
			if analysis.IsSliceType(pass.TypesInfo, target) &&
				declaredOutside(pass, target, rs) &&
				!sortedInFunc(pass, funcBody, target) {
				pass.Reportf(call.Pos(),
					"slice %s collects map iteration results but is never sorted; sort it (sort.*/slices.Sort*) or justify with //ckvet:ignore maporder",
					exprString(target))
			}
			return true
		}
		if msg := serializationSink(pass, call); msg != "" {
			pass.Reportf(call.Pos(),
				"%s inside map iteration serializes in nondeterministic order; collect and sort keys first", msg)
		}
		return true
	})
}

// declaredOutside reports whether the append target is declared outside
// the range statement (an inside-declared slice is per-iteration state,
// whose order the map cannot leak into).
func declaredOutside(pass *analysis.Pass, target ast.Expr, rs *ast.RangeStmt) bool {
	id, ok := target.(*ast.Ident)
	if !ok {
		// Field selectors and index expressions refer to state that
		// outlives the loop iteration unless their root is loop-local;
		// treat as outside (conservative).
		root := target
		for {
			switch t := root.(type) {
			case *ast.SelectorExpr:
				root = t.X
				continue
			case *ast.IndexExpr:
				root = t.X
				continue
			}
			break
		}
		if rid, ok := root.(*ast.Ident); ok {
			return identDeclaredOutside(pass, rid, rs)
		}
		return true
	}
	return identDeclaredOutside(pass, id, rs)
}

// identDeclaredOutside reports whether id's declaration precedes the
// range statement.
func identDeclaredOutside(pass *analysis.Pass, id *ast.Ident, rs *ast.RangeStmt) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return true
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// sortedInFunc reports whether the enclosing function passes target to a
// recognized sort call.
func sortedInFunc(pass *analysis.Pass, funcBody *ast.BlockStmt, target ast.Expr) bool {
	key := analysis.ExprKey(pass.Fset, pass.TypesInfo, target)
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		pkg, name := analysis.PkgFunc(pass.TypesInfo, call)
		if names, ok := sortFuncs[pkg]; !ok || !names[name] {
			return true
		}
		if analysis.ExprKey(pass.Fset, pass.TypesInfo, call.Args[0]) == key {
			found = true
		}
		return true
	})
	return found
}

// serializationSink classifies a call that emits bytes or text in call
// order; the returned message names the sink ("" when the call is not
// one).
func serializationSink(pass *analysis.Pass, call *ast.CallExpr) string {
	if pkg, name := analysis.PkgFunc(pass.TypesInfo, call); pkg != "" {
		switch {
		case pkg == "fmt" && strings.HasPrefix(name, "Fprint"):
			return "fmt." + name
		case pkg == "encoding/binary" && (strings.HasPrefix(name, "Append") || strings.HasPrefix(name, "Put") || name == "Write"):
			return "binary." + name
		case pkg == "io" && name == "WriteString":
			return "io.WriteString"
		}
		return ""
	}
	// Local byte-framing helpers by convention: append*(buf, ...) []byte.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if strings.HasPrefix(id.Name, "append") && id.Name != "append" &&
			len(call.Args) > 0 && isByteSlice(pass, call.Args[0]) {
			return id.Name
		}
		return ""
	}
	// Writer-style methods: strings.Builder, bytes.Buffer, io.Writer,
	// hash.Hash — anything with a Write* method receiving this loop's
	// data in iteration order.
	recv, name := analysis.MethodCall(pass.TypesInfo, call)
	if recv == nil {
		return ""
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		n := analysis.NamedOf(recv)
		if n != nil && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + name
		}
		return name
	}
	return ""
}

// isByteSlice reports whether e is a []byte.
func isByteSlice(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// exprString renders an expression for a diagnostic.
func exprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprString(t.X) + "." + t.Sel.Name
	case *ast.IndexExpr:
		return exprString(t.X) + "[...]"
	}
	return "expression"
}

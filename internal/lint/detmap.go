package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deterministicPkgs are the packages whose outputs are pinned byte-for-byte
// (search tables, schedules, figure artifacts, journal frames, HTTP
// bodies): map iteration order must never leak into what they produce.
var deterministicPkgs = map[string]bool{
	"search":   true,
	"cost":     true,
	"schedule": true,
	"analytic": true,
	"engine":   true,
	"des":      true,
	"store":    true,
	"service":  true,
	"figures":  true,
}

// AnalyzerDetmap flags `for ... range m` over a map in a deterministic
// package when the loop body lets the iteration order escape: appending to
// or writing a variable declared outside the loop, sending on a channel,
// or writing output (fmt.Fprint*/Write*). The one sanctioned shape is the
// sort-the-keys idiom — a loop that only collects keys or values into a
// slice that is then passed to a sort.*/slices.Sort* call later in the
// same function. Order-independent reads (lookups, len) are never flagged.
var AnalyzerDetmap = &Analyzer{
	Name: "detmap",
	Doc: "forbid order-dependent map iteration in deterministic packages " +
		"(search, cost, schedule, analytic, engine, des, store, service, figures); " +
		"collect the keys and sort them first",
	Run: runDetmap,
}

func runDetmap(pass *Pass) error {
	if !deterministicPkgs[pass.PkgTail()] {
		return nil
	}
	forEachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, fd, rs)
			return true
		})
	})
	return nil
}

// checkMapRange classifies one map-range body and reports order leaks.
func checkMapRange(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	lo, hi := rs.Pos(), rs.End()
	loopKey := rangeVarObj(pass.Info, rs.Key)

	// collects are outer slices the body appends into; they are tolerated
	// only if the enclosing function sorts them after the loop.
	var collects []types.Object
	leaked := false
	report := func(pos token.Pos, format string, args ...any) {
		if !leaked {
			pass.Reportf(pos, format, args...)
			leaked = true
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if leaked {
			return false
		}
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range stmt.Lhs {
				root := rootIdent(lhs)
				if root == nil {
					continue
				}
				obj := objOf(pass.Info, root)
				if obj == nil || declaredWithin(obj, lo, hi) {
					continue // loop-local state cannot leak order
				}
				if _, isPkg := obj.(*types.PkgName); isPkg {
					continue
				}
				// x = append(x, ...) into an outer slice is the collect
				// half of the sort-the-keys idiom; remember it for the
				// sort check instead of flagging immediately.
				if id, okL := ast.Unparen(lhs).(*ast.Ident); okL && i < len(stmt.Rhs) {
					if isSelfAppend(pass.Info, id, stmt.Rhs[i]) {
						collects = append(collects, obj)
						continue
					}
				}
				// Writes keyed by the loop key (m2[k] = v) are
				// order-independent: each iteration touches its own slot.
				if idx, okI := ast.Unparen(lhs).(*ast.IndexExpr); okI && loopKey != nil {
					if keyID, okK := ast.Unparen(idx.Index).(*ast.Ident); okK &&
						objOf(pass.Info, keyID) == loopKey {
						continue
					}
				}
				report(stmt.Pos(), "map iteration order leaks into %q; range over sorted keys instead", root.Name)
			}
		case *ast.IncDecStmt:
			if root := rootIdent(stmt.X); root != nil {
				if obj := objOf(pass.Info, root); obj != nil && !declaredWithin(obj, lo, hi) {
					report(stmt.Pos(), "map iteration order leaks into %q; range over sorted keys instead", root.Name)
				}
			}
		case *ast.SendStmt:
			report(stmt.Pos(), "map iteration sends on a channel in iteration order; range over sorted keys instead")
		case *ast.CallExpr:
			if name, outer := outputCall(pass.Info, stmt, lo, hi); outer {
				report(stmt.Pos(), "map iteration writes output via %s in iteration order; range over sorted keys instead", name)
			}
		}
		return !leaked
	})
	if leaked {
		return
	}
	for _, obj := range collects {
		if !sortedAfter(pass.Info, fd.Body, obj, hi) {
			pass.Reportf(rs.Pos(), "map keys collected into %q are never sorted; sort before use", obj.Name())
			return
		}
	}
}

// rangeVarObj resolves a range statement's key/value expression to its
// object (nil for `_` or absent).
func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return objOf(info, id)
}

// isSelfAppend reports whether rhs is append(lhs, ...).
func isSelfAppend(info *types.Info, lhs *ast.Ident, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if _, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && objOf(info, arg) == objOf(info, lhs)
}

// outputCall reports whether the call writes output to state declared
// outside [lo, hi]: fmt.Fprint*/Print*, or a Write*/Print* method on an
// outer receiver (io.Writer, strings.Builder, bytes.Buffer alike).
func outputCall(info *types.Info, call *ast.CallExpr, lo, hi token.Pos) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if f := funcObj(info, call); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		switch name {
		case "Print", "Println", "Printf":
			return "fmt." + name, true
		case "Fprint", "Fprintln", "Fprintf":
			// Order leaks only when the destination outlives the loop.
			if len(call.Args) > 0 {
				if root := rootIdent(call.Args[0]); root != nil {
					if obj := objOf(info, root); obj != nil && !declaredWithin(obj, lo, hi) {
						return "fmt." + name, true
					}
				}
			}
			return "", false
		}
		return "", false
	}
	if !writerMethodName(name) {
		return "", false
	}
	root := rootIdent(sel.X)
	if root == nil {
		return "", false
	}
	obj := objOf(info, root)
	if obj == nil || declaredWithin(obj, lo, hi) {
		return "", false
	}
	if _, isPkg := obj.(*types.PkgName); isPkg {
		return "", false
	}
	return root.Name + "." + name, true
}

func writerMethodName(name string) bool {
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Print", "Printf", "Println":
		return true
	}
	return false
}

// sortedAfter reports whether obj appears as an argument of a sort call
// (sort.* or slices.Sort*) positioned after pos within body.
func sortedAfter(info *types.Info, body *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		f := funcObj(info, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		switch f.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil && objOf(info, root) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

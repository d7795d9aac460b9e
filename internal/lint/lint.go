// Package lint is the project's static-invariant suite: a set of
// bfpp-specific analyzers built directly on the stdlib go/ast + go/types
// toolchain (no external analysis module, so the repo stays dependency-free
// and buildable offline). The analyzer API mirrors the shape of
// golang.org/x/tools/go/analysis — an Analyzer owns a name, a doc string
// and a Run(*Pass) hook — but the driver is self-hosted (see driver.go and
// load.go).
//
// The analyzers pin source-side what the golden tests, -race passes and
// chaos drills enforce dynamically:
//
//   - detmap: no order-dependent iteration over maps in deterministic
//     packages (sort the keys first).
//   - detsource: no wall-clock, unseeded randomness or address-derived
//     values in code that can influence a search.Table, journal entry or
//     replay bound.
//   - registrylint: no switch/if dispatch on core.Method outside the
//     registration surface (internal/core, internal/schedule).
//   - ctxfirst: context.Context is the first parameter of the job-layer
//     packages' functions; context.Background() stays in cmd/, scripts/
//     and tests.
//   - globalstate: no new package-level mutable state in library packages
//     (a process-global that concurrent requests would race on).
//
// Deliberate exceptions are encoded in source as
//
//	//lint:allow <analyzer> <reason>
//
// pragmas, which suppress findings of <analyzer> on the pragma's own line
// and on the line immediately below it. The reason is mandatory: a pragma
// without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer so checks could migrate to the
// upstream driver if the repo ever takes the dependency.
type Analyzer struct {
	// Name identifies the analyzer in findings, pragmas and counts. It
	// must be a single lower-case word.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run reports findings on one type-checked package via pass.Reportf.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test sources, with comments.
	Files []*ast.File
	// Pkg and Info carry full type information (Defs, Uses, Types,
	// Selections, Scopes) for the package and everything it references.
	Pkg  *types.Package
	Info *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding at a resolved source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// PkgTail returns the last element of the package's import path — the name
// the analyzers classify packages by, so fixture packages under
// testdata/src/<analyzer>/<name> are classified exactly like the real
// internal/<name> packages.
func (p *Pass) PkgTail() string {
	path := p.Pkg.Path()
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// pathHasSegment reports whether an import path contains seg as a whole
// path element ("bfpp/cmd/bfpp-sim" has segment "cmd").
func pathHasSegment(path, seg string) bool {
	for part := range strings.SplitSeq(path, "/") {
		if part == seg {
			return true
		}
	}
	return false
}

// InCommand reports whether the package is a command-line entry point
// (under a cmd/ or scripts/ directory) or an example program — the
// process-edge surface where wall-clock use and context.Background are the
// norm.
func (p *Pass) InCommand() bool {
	path := p.Pkg.Path()
	return pathHasSegment(path, "cmd") || pathHasSegment(path, "scripts") ||
		pathHasSegment(path, "examples")
}

// namedFrom reports whether t (after unaliasing) is the named type
// pkgTail.typeName, matching by the defining package's import-path tail so
// fixtures stand in for the real packages.
func namedFrom(t types.Type, pkgTail, typeName string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != typeName || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path == pkgTail
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// funcObj resolves a call's callee to its package-level *types.Func (nil
// for builtins, type conversions, function-typed variables and methods
// reached through a non-selector expression).
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// rootIdent walks to the base identifier of an lvalue-ish expression:
// x, x.f.g, x[i], *x all root at x. Returns nil for expressions not rooted
// in a plain identifier (function calls, composite literals).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its object (definition or use).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// declaredWithin reports whether the object's declaration lies inside the
// [lo, hi] source range — i.e. the variable is local to that region.
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() >= lo && obj.Pos() <= hi
}

package lint

import (
	"go/ast"
	"go/types"
)

// ctxPkgs are the job-layer packages whose API is context-first by
// contract (the PR-5 redesign): any function there that accepts a
// context.Context must take it as the first parameter.
var ctxPkgs = map[string]bool{
	"search":   true,
	"figures":  true,
	"tradeoff": true,
	"service":  true,
}

// AnalyzerCtxfirst enforces the context-first API contract: in the
// job-layer packages (search, figures, tradeoff, service) every
// function or method with a context.Context parameter takes it first; and
// context.Background()/context.TODO() are forbidden outside cmd/, scripts/
// and examples/ (tests are never loaded) — library code must thread the
// caller's context, never mint a fresh root that detaches cancellation.
var AnalyzerCtxfirst = &Analyzer{
	Name: "ctxfirst",
	Doc: "context.Context must be the first parameter in the job-layer " +
		"packages, and context.Background()/TODO() may appear only at process " +
		"edges (cmd/, scripts/, examples/)",
	Run: runCtxfirst,
}

func runCtxfirst(pass *Pass) error {
	if ctxPkgs[pass.PkgTail()] {
		forEachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
			checkCtxPosition(pass, fd)
		})
	}
	if !pass.InCommand() {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if f := funcObj(pass.Info, call); f != nil && f.Pkg() != nil &&
					f.Pkg().Path() == "context" &&
					(f.Name() == "Background" || f.Name() == "TODO") {
					pass.Reportf(call.Pos(), "context.%s() mints a root context in library code; thread the caller's context instead", f.Name())
				}
				return true
			})
		}
	}
	return nil
}

// checkCtxPosition flags a declaration whose context parameter is not the
// first.
func checkCtxPosition(pass *Pass, fd *ast.FuncDecl) {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			if i != 0 {
				pass.Reportf(fd.Pos(), "%s takes context.Context as parameter %d; the job-layer contract is context first", fd.Name.Name, i+1)
			}
			return
		}
	}
}

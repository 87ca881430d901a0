// Package ctxflow enforces the context discipline the PR-3 execution
// redesign established: cancellation flows from the caller down through
// every long-running layer. Concretely, in the module's internal packages:
//
//   - exported long-running entry points (Run*, Serve*, Stream*, Listen*,
//     Loop*, Poll*) must accept a context.Context parameter, and
//   - context.Background() / context.TODO() must not be minted outside the
//     documented compatibility shims — a library that conjures its own root
//     context cannot be cancelled by the service layer above it.
//
// The documented shims (Executor.RunUntil, sim's nil-context default, the
// experiments default and the service's own lifecycle root) are annotated in
// place: //soter:ctx-ok <reason>. Main packages are exempt — a main owns its
// root context — and test files are never loaded.
package ctxflow

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/directive"
)

// Analyzer is the ctxflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "ctxflow",
	Doc:      "require context plumbing through long-running entry points and forbid ambient context roots in internal packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

const suppress = "ctx-ok"

// entryPoint matches exported names that conventionally denote long-running
// work. ServeHTTP is exempt: its signature is fixed by net/http, and the
// request context rides on *http.Request.
var entryPoint = regexp.MustCompile(`^(Run|Serve|Stream|Listen|Loop|Poll)([A-Z0-9].*)?$`)

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Name() == "main" || !strings.Contains(pass.Pkg.Path(), "internal/") {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	idx := directive.ParseFiles(pass.Fset, pass.Files)

	nodeFilter := []ast.Node{(*ast.FuncDecl)(nil), (*ast.SelectorExpr)(nil)}
	ins.Preorder(nodeFilter, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkEntryPoint(pass, idx, n)
		case *ast.SelectorExpr:
			checkAmbientRoot(pass, idx, n)
		}
	})
	return nil, nil
}

// checkEntryPoint requires a context parameter on exported long-running
// functions and methods.
func checkEntryPoint(pass *analysis.Pass, idx *directive.Index, fd *ast.FuncDecl) {
	name := fd.Name.Name
	if !entryPoint.MatchString(name) || name == "ServeHTTP" {
		return
	}
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok || !fn.Exported() {
		return
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isContext(sig.Params().At(i).Type()) {
			return
		}
	}
	if idx.SuppressedAt(pass, suppress, fd.Pos()) || idx.SuppressedAt(pass, suppress, fd.Name.Pos()) {
		return
	}
	pass.Reportf(fd.Name.Pos(), "exported long-running entry point %s does not accept a context.Context: callers cannot cancel it (thread a ctx parameter, or annotate //soter:ctx-ok <reason>)", name)
}

// checkAmbientRoot forbids minting root contexts inside library code.
func checkAmbientRoot(pass *analysis.Pass, idx *directive.Index, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return
	}
	if name := fn.Name(); name != "Background" && name != "TODO" {
		return
	}
	if idx.SuppressedAt(pass, suppress, sel.Pos()) {
		return
	}
	pass.ReportRangef(sel, "context.%s() mints an ambient root context in internal package %s: accept a ctx from the caller instead (or annotate //soter:ctx-ok <reason> on a documented shim)", fn.Name(), pass.Pkg.Name())
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

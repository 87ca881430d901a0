// Package detsource enforces SOTER's determinism-by-construction invariant
// at the source level. Every simulation result in this repo — the golden
// event streams, the fingerprint-keyed result cache, the fleet reports that
// must agree at any worker count — assumes that a run is a pure function of
// (Spec, seed). That only holds if the deterministic packages never consult
// ambient nondeterminism. This analyzer forbids, inside those packages:
//
//   - time.Now / time.Since / time.Until — wall-clock reads;
//   - the top-level math/rand and math/rand/v2 functions (rand.Int,
//     rand.Float64, rand.Shuffle, …) which draw from the shared global
//     source; explicitly seeded generators (rand.New(rand.NewSource(s)))
//     remain legal;
//   - `range` over a map whose body writes to state that escapes the loop,
//     unless the write is order-independent (a keyed write into another map,
//     an integer accumulation, a constant store) or the collected slice is
//     sorted afterwards in the same function.
//
// Audited exceptions (wall-clock measurement of a report, signal plumbing)
// are annotated in place: //soter:nondet-ok <reason>.
package detsource

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint/directive"
)

// Analyzer is the detsource analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detsource",
	Doc:  "forbid wall-clock reads, global rand and order-dependent map iteration in deterministic packages",
	Run:  run,
}

// deterministic lists the packages (by import-path base) whose behaviour
// must be a pure function of (Spec, seed).
var deterministic = map[string]bool{
	"sim": true, "fleet": true, "rta": true, "runtime": true,
	"plant": true, "pubsub": true, "scenario": true, "plan": true,
	"mission": true, "reach": true, "battery": true, "falsify": true,
	"certify": true,
}

// allowedRand lists the math/rand top-level functions that construct
// explicitly seeded generators instead of drawing from the global source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2 constructors
}

const suppress = "nondet-ok"

func run(pass *analysis.Pass) (interface{}, error) {
	if !deterministic[pathBase(pass.Pkg.Path())] {
		return nil, nil
	}
	idx := directive.ParseFiles(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		checkAmbientSources(pass, idx, file)
		checkMapRanges(pass, idx, file)
	}
	return nil, nil
}

// pathBase returns the last import-path element.
func pathBase(path string) string {
	return path[strings.LastIndex(path, "/")+1:]
}

// checkAmbientSources reports references to wall-clock and global-rand
// functions. References, not just calls: passing time.Now as a value smuggles
// the same nondeterminism.
func checkAmbientSources(pass *analysis.Pass, idx *directive.Index, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			return true // methods (e.g. (*rand.Rand).Float64) are seeded
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				if !idx.SuppressedAt(pass, suppress, sel.Pos()) {
					pass.ReportRangef(sel, "time.%s reads the wall clock in deterministic package %s (use simulated time, or annotate //soter:nondet-ok <reason>)", fn.Name(), pass.Pkg.Name())
				}
			}
		case "math/rand", "math/rand/v2":
			if !allowedRand[fn.Name()] {
				if !idx.SuppressedAt(pass, suppress, sel.Pos()) {
					pass.ReportRangef(sel, "global rand.%s in deterministic package %s (draw from a seeded *rand.Rand, or annotate //soter:nondet-ok <reason>)", fn.Name(), pass.Pkg.Name())
				}
			}
		}
		return true
	})
}

// checkMapRanges reports map-range loops whose bodies publish iteration
// order into escaping state.
func checkMapRanges(pass *analysis.Pass, idx *directive.Index, file *ast.File) {
	// enclosing tracks the innermost function body so the sorted-later
	// exception knows where "later" ends.
	var funcStack []ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				funcStack = append(funcStack, n.Body)
				ast.Inspect(n.Body, walk)
				funcStack = funcStack[:len(funcStack)-1]
			}
			return false
		case *ast.FuncLit:
			funcStack = append(funcStack, n.Body)
			ast.Inspect(n.Body, walk)
			funcStack = funcStack[:len(funcStack)-1]
			return false
		case *ast.RangeStmt:
			var encl ast.Node
			if len(funcStack) > 0 {
				encl = funcStack[len(funcStack)-1]
			}
			checkOneRange(pass, idx, n, encl)
		}
		return true
	}
	ast.Inspect(file, walk)
}

func checkOneRange(pass *analysis.Pass, idx *directive.Index, rng *ast.RangeStmt, enclosing ast.Node) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	rangeVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				rangeVars[obj] = true
			}
		}
	}
	report := func(rg analysis.Range, format string, args ...interface{}) {
		if idx.SuppressedAt(pass, suppress, rg.Pos()) || idx.SuppressedAt(pass, suppress, rng.For) {
			return
		}
		pass.ReportRangef(rg, format, args...)
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				checkWrite(pass, report, rng, enclosing, rangeVars, n, lhs, i)
			}
		case *ast.IncDecStmt:
			if !writesInner(pass, rng, n.X) && !isIntegerTyped(pass, n.X) {
				report(n, "non-integer %s on state escaping a map-range loop: result depends on iteration order", n.Tok)
			}
		case *ast.SendStmt:
			report(n, "channel send inside a map-range loop publishes iteration order")
		case *ast.GoStmt:
			report(n, "goroutine launched per map-range iteration: scheduling order follows map order")
		}
		return true
	})
}

// checkWrite vets one assignment target inside a map-range body.
func checkWrite(pass *analysis.Pass, report func(analysis.Range, string, ...interface{}), rng *ast.RangeStmt, enclosing ast.Node, rangeVars map[types.Object]bool, stmt *ast.AssignStmt, lhs ast.Expr, i int) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if writesInner(pass, rng, lhs) {
		return // target declared inside the loop body: nothing escapes
	}
	// Keyed writes (out[k] = v, or values[id] = v with id derived from the
	// key inside the loop) land in a position named by the key, not by
	// iteration order.
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		switch pass.TypesInfo.TypeOf(ix.X).Underlying().(type) {
		case *types.Map, *types.Slice, *types.Array:
			if mentionsAny(pass, ix.Index, rangeVars) || mentionsLoopLocal(pass, ix.Index, rng) {
				return
			}
		}
	}
	switch stmt.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		// Commutative integer accumulation is order-independent.
		if isIntegerTyped(pass, lhs) {
			return
		}
	case token.ASSIGN:
		if len(stmt.Lhs) == len(stmt.Rhs) {
			rhs := stmt.Rhs[i]
			// Storing a constant is idempotent across iterations.
			if tv, ok := pass.TypesInfo.Types[rhs]; ok && tv.Value != nil {
				return
			}
			// Accumulate-then-sort: v = append(v, …) is fine when v is
			// sorted after the loop, the canonical determinism fix.
			if isAppendTo(pass, rhs, lhs) && sortedAfter(pass, enclosing, rng, lhs) {
				return
			}
		}
	}
	report(lhs, "write to %s escapes a map-range loop: iteration order is nondeterministic (sort the keys first, or annotate //soter:nondet-ok <reason>)", exprString(lhs))
}

// writesInner reports whether the write target's root is declared inside the
// loop body (or is itself unresolvable, which only happens for inner
// temporaries of malformed code).
func writesInner(pass *analysis.Pass, rng *ast.RangeStmt, e ast.Expr) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := pass.TypesInfo.Uses[root]
	if obj == nil {
		obj = pass.TypesInfo.Defs[root]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= rng.Body.Pos() && obj.Pos() <= rng.Body.End()
}

// rootIdent peels selectors, indexes, derefs and parens down to the base
// identifier of an assignable expression.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// mentionsAny reports whether the expression references any of the objects.
func mentionsAny(pass *analysis.Pass, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// mentionsLoopLocal reports whether the expression references a variable
// declared inside the loop body (a per-iteration derivation of the key).
func mentionsLoopLocal(pass *analysis.Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !found
		}
		obj := pass.TypesInfo.Uses[id]
		if obj != nil && obj.Pos() >= rng.Body.Pos() && obj.Pos() <= rng.Body.End() {
			found = true
		}
		return !found
	})
	return found
}

func isIntegerTyped(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isAppendTo reports whether rhs is append(dst, …) growing the same
// expression as dst.
func isAppendTo(pass *analysis.Pass, rhs, dst ast.Expr) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	return exprString(call.Args[0]) == exprString(dst)
}

// sortedAfter reports whether the written variable is handed to a sorting
// call after the loop, within the same enclosing function body.
func sortedAfter(pass *analysis.Pass, enclosing ast.Node, rng *ast.RangeStmt, dst ast.Expr) bool {
	if enclosing == nil {
		return false
	}
	root := rootIdent(dst)
	if root == nil {
		return false
	}
	obj := pass.TypesInfo.Uses[root]
	if obj == nil {
		return false
	}
	sorted := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || sorted {
			return !sorted
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if argRoot := rootIdent(arg); argRoot != nil && pass.TypesInfo.Uses[argRoot] == obj {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// isSortCall recognises the sort and slices ordering entry points, plus any
// helper whose name mentions Sort.
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
				return true
			}
			return strings.Contains(fn.Name(), "Sort")
		}
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return strings.Contains(fn.Name(), "Sort")
		}
	case *ast.IndexExpr: // generic instantiation: slices.Sort[S, E](…)
		if sel, ok := fun.X.(*ast.SelectorExpr); ok {
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
				p := fn.Pkg().Path()
				return p == "sort" || p == "slices" || strings.Contains(fn.Name(), "Sort")
			}
		}
	}
	return false
}

// exprString renders a simple assignable expression for diagnostics and
// append-target matching.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[…]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	default:
		return "expression"
	}
}

// Package driver runs go/analysis analyzers over packages produced by the
// load package — the in-process replacement for x/tools' multichecker
// driver, which is not part of the toolchain's vendored analysis core. It
// supports the subset of the analysis API the soter-vet suite needs:
// Requires graphs (for the inspect pass), per-pass results, and positioned
// diagnostics. Facts (cross-package analysis state) are deliberately not
// implemented; every soter-vet analyzer is single-package.
package driver

import (
	"fmt"
	"go/token"
	"os"
	"sort"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint/load"
)

// Diagnostic is one finding, with its analyzer and resolved position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies every analyzer (and, first, its Requires closure) to every
// package and returns the diagnostics sorted by position. An analyzer
// returning an error aborts the run: that is a broken analyzer, not a
// finding.
//
//soter:ctx-ok in-process CPU-bound pass over already-loaded packages; callers run it to completion
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	if err := analysis.Validate(analyzers); err != nil {
		return nil, err
	}
	order, err := topoSort(analyzers)
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		results := map[*analysis.Analyzer]interface{}{}
		for _, a := range order {
			if len(a.FactTypes) > 0 {
				return nil, fmt.Errorf("analyzer %s declares facts; the soter-vet driver does not support them", a.Name)
			}
			pass := &analysis.Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Syntax,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				TypesSizes: nil,
				ResultOf:   map[*analysis.Analyzer]interface{}{},
				ReadFile:   os.ReadFile,
				Report: func(d analysis.Diagnostic) {
					diags = append(diags, Diagnostic{
						Analyzer: a.Name,
						Pos:      pkg.Fset.Position(d.Pos),
						Message:  d.Message,
					})
				},
			}
			for _, req := range a.Requires {
				pass.ResultOf[req] = results[req]
			}
			res, err := a.Run(pass)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			results[a] = res
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// topoSort orders analyzers so every Requires dependency runs before its
// dependents. analysis.Validate has already rejected cycles.
func topoSort(analyzers []*analysis.Analyzer) ([]*analysis.Analyzer, error) {
	var order []*analysis.Analyzer
	seen := map[*analysis.Analyzer]bool{}
	var visit func(a *analysis.Analyzer)
	visit = func(a *analysis.Analyzer) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, req := range a.Requires {
			visit(req)
		}
		order = append(order, a)
	}
	for _, a := range analyzers {
		visit(a)
	}
	return order, nil
}

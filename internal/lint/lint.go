// Package lint assembles the soter-vet analysis suite: the custom
// go/analysis analyzers that machine-check what no test can see, the
// determinism and context discipline of the repo's non-test code, on every
// build before any test runs.
//
//   - detsource: deterministic packages must not read the wall clock, draw
//     from the global rand source, or publish map-iteration order.
//   - ctxflow: long-running exported entry points take a context.Context,
//     and internal packages never mint ambient root contexts.
//
// The suite runs three ways with identical findings: `go run
// ./cmd/soter-vet ./...` (CI, pre-build), the repo-wide self-check test in
// this package (so a bare `go test ./...` also fails on violations), and the
// per-analyzer fixture tests under each analyzer's testdata.
package lint

import (
	"golang.org/x/tools/go/analysis"

	"repro/internal/lint/ctxflow"
	"repro/internal/lint/detsource"
)

// Suite returns the full soter-vet analyzer suite, in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detsource.Analyzer,
		ctxflow.Analyzer,
	}
}

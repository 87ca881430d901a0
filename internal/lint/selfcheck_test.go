package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/driver"
	"repro/internal/lint/load"
)

// TestRepoIsCleanUnderSuite runs the whole soter-vet suite over the module —
// the same pass CI runs via cmd/soter-vet, embedded in
// `go test ./...` so the invariants hold even where CI is not wired up.
// Fixture packages under testdata are excluded by Go's wildcard rules, so
// their intentional violations do not fire here.
func TestRepoIsCleanUnderSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short mode")
	}
	pkgs, err := load.Load(load.Config{Patterns: []string{"repro/..."}})
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	diags, err := driver.Run(pkgs, lint.Suite())
	if err != nil {
		t.Fatalf("running the suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the findings or annotate audited exceptions with //soter:nondet-ok / //soter:ctx-ok <reason>")
	}
}

// Package experiments implements the reproduction of every figure and table
// in the paper's evaluation (Section V). Each experiment is a pure function
// from a seeded configuration to a result value whose Format method prints
// the rows/series the paper reports; the ones that simulate take the
// cancellation context as their first argument. Catalogue is
// the one list of them: cmd/soter-bench and the bench_test.go harness at the
// repository root both range over it, and `go test -bench . -benchtime 1x`
// regenerates all of them.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// table is a tiny fixed-width text-table builder used by all Format methods.
type table struct {
	b strings.Builder
}

func (t *table) title(s string) {
	t.b.WriteString(s)
	t.b.WriteString("\n")
	t.b.WriteString(strings.Repeat("-", len(s)))
	t.b.WriteString("\n")
}

func (t *table) row(cols ...string) {
	for i, c := range cols {
		if i > 0 {
			t.b.WriteString("  ")
		}
		t.b.WriteString(fmt.Sprintf("%-18s", c))
	}
	t.b.WriteString("\n")
}

func (t *table) line(format string, args ...any) {
	fmt.Fprintf(&t.b, format, args...)
	t.b.WriteString("\n")
}

func (t *table) String() string { return t.b.String() }

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Millisecond).String()
}

func fmtPct(f float64) string {
	return fmt.Sprintf("%.1f%%", 100*f)
}

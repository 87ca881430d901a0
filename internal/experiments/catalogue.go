package experiments

import "context"

// Outcome is one experiment run: its printable table and the typed result
// value (Fig5RightResult, *fleet.Report, ...) the claim table asserts on.
type Outcome struct {
	Text   string
	Result any
}

// Experiment is one catalogue entry: a name and a run at (seed, quick,
// workers). quick selects the scaled-down size; workers bounds the fleet
// worker pool of the experiments that sweep (0 = GOMAXPROCS). Each entry
// sizes itself and derives its own seed from the catalogue seed by a fixed
// offset, so seed 1 at full size reproduces the paper-figure configurations.
type Experiment struct {
	Name string
	Run  func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error)
}

// Catalogue lists every experiment of the evaluation, in report order:
// fig5r fig5l fig6 fig10 fig12a fig12b fig12b-fleet fig12c sec5c sec5d
// abl-delta abl-policy abl-return scenarios. cmd/soter-bench and the
// package's claim tests and benchmark all range over it.
func Catalogue() []Experiment {
	return []Experiment{
		{"fig5r", fig5Right},
		{"fig5l", fig5Left},
		{"fig6", fig6},
		{"fig10", fig10},
		{"fig12a", fig12a},
		{"fig12b", fig12b},
		{"fig12b-fleet", fig12bFleet},
		{"fig12c", fig12c},
		{"sec5c", sec5c},
		{"sec5d", sec5d},
		{"abl-delta", ablationDelta},
		{"abl-policy", ablationPolicy},
		{"abl-return", ablationReturn},
		{"scenarios", scenarioSweep},
	}
}

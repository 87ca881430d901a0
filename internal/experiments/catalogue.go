package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/rta"
	"repro/internal/scenario"
)

// Outcome is one experiment run: its printable table, the headline numbers
// soter-bench -json reports, and the typed result value (Fig5RightResult,
// *fleet.Report, ...) the bench harness asserts on.
type Outcome struct {
	Text       string
	Crashes    int
	ACFraction float64 // -1 when the experiment has no AC/SC layer
	// Policy is the switching policy the experiment ran ("" = the default
	// soter-fig9; "grid" for sweeps spanning several policies).
	Policy string
	Result any
}

// Experiment is one catalogue entry: a name and a run at (seed, quick,
// workers). Each entry derives its own seed from the catalogue seed, so
// seed 1 at full size reproduces the paper-figure configurations.
type Experiment struct {
	Name string
	Run  func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error)
}

// Catalogue lists every experiment of the evaluation, in report order:
// fig5r fig5l fig6 fig10 fig12a fig12b fig12b-fleet fig12c sec5c sec5d
// abl-delta abl-policy abl-return scenarios. cmd/soter-bench and the root
// bench harness both range over it.
func Catalogue() []Experiment {
	return []Experiment{
		{"fig5r", func(ctx context.Context, seed int64, quick bool, _ int) (Outcome, error) {
			laps := 10
			if quick {
				laps = 5
			}
			res, err := Fig5Right(ctx, Fig5Config{Seed: seed, Laps: laps})
			return Outcome{res.Format(), res.CollidingLaps, -1, "", res}, err
		}},
		{"fig5l", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			laps := 12
			if quick {
				laps = 6
			}
			res, err := Fig5Left(ctx, Fig5Config{Seed: seed + 4, Laps: laps, Workers: workers})
			return Outcome{res.Format(), res.UnsafeLoops, -1, "", res}, err
		}},
		{"fig6", func(ctx context.Context, seed int64, _ bool, _ int) (Outcome, error) {
			res, err := Fig6(ctx, Fig6Config{Seed: seed + 1})
			return Outcome{res.Format(), boolCount(res.Crashed), -1, "", res}, err
		}},
		{"fig10", func(_ context.Context, seed int64, quick bool, _ int) (Outcome, error) {
			samples := 4000
			if quick {
				samples = 1000
			}
			res, err := Fig10(Fig10Config{Seed: seed + 2, Samples: samples})
			return Outcome{res.Format(), 0, -1, "", res}, err
		}},
		{"fig12a", func(ctx context.Context, seed int64, quick bool, _ int) (Outcome, error) {
			tours := 2
			if quick {
				tours = 1
			}
			res, err := Fig12a(ctx, Fig12aConfig{Seed: seed + 3, Tours: tours})
			out := Outcome{Text: res.Format(), ACFraction: -1, Result: res}
			for _, row := range res.Rows {
				out.Crashes += row.Collisions
				if row.Mode == "rta" {
					out.ACFraction = row.ACFraction
				}
			}
			return out, err
		}},
		{"fig12b", func(ctx context.Context, seed int64, quick bool, _ int) (Outcome, error) {
			d := 2 * time.Minute
			if quick {
				d = 45 * time.Second
			}
			res, err := Fig12b(ctx, Fig12bConfig{Seed: seed + 6, Duration: d, Faults: true})
			return Outcome{res.Format(), boolCount(res.Crashed), res.ACFraction, "", res}, err
		}},
		{"fig12b-fleet", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			cfg := Fig12bFleetConfig{BaseSeed: seed + 6, Missions: 8, Duration: time.Minute, Faults: true, Workers: workers}
			if quick {
				cfg.Missions = 4
				cfg.Duration = 30 * time.Second
			}
			res, err := Fig12bFleet(ctx, cfg)
			return Outcome{res.Format(), res.Crashes, res.MeanACFraction, "", res}, err
		}},
		{"fig12c", func(ctx context.Context, seed int64, _ bool, _ int) (Outcome, error) {
			res, err := Fig12c(ctx, Fig12cConfig{Seed: seed + 10})
			return Outcome{res.Format(), boolCount(res.Crashed), -1, "", res}, err
		}},
		{"sec5c", func(ctx context.Context, seed int64, quick bool, _ int) (Outcome, error) {
			cfg := Sec5cConfig{Seed: seed + 2, Queries: 40, ClosedLoop: time.Minute}
			if quick {
				cfg.Queries = 15
				cfg.ClosedLoop = 0
			}
			res, err := Sec5c(ctx, cfg)
			return Outcome{res.Format(), boolCount(res.ClosedCrashed), res.PlannerACFrac, "", res}, err
		}},
		{"sec5d", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			cfg := Sec5dConfig{Seed: seed + 12, SimHours: 0.5, Workers: workers}
			if quick {
				cfg.SimHours = 0.1
				cfg.SegmentMinutes = 3
			}
			res, err := Sec5d(ctx, cfg)
			out := Outcome{Text: res.Format(), ACFraction: -1, Result: res}
			for _, row := range res.Rows {
				out.Crashes += row.Crashes
			}
			if len(res.Rows) > 0 {
				out.ACFraction = res.Rows[0].ACFraction
			}
			return out, err
		}},
		{"abl-delta", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			res, err := AblationDelta(ctx, ablationConfig(seed, quick, workers))
			out := Outcome{Text: res.Format(), ACFraction: -1, Result: res}
			for _, row := range res.Rows {
				out.Crashes += boolCount(row.Crashed)
				// Report the paper-default grid point (Δ=100ms, hysteresis 2).
				if row.Delta == 100*time.Millisecond && row.Hysteresis == 2.0 {
					out.ACFraction = row.ACFraction
				}
			}
			return out, err
		}},
		{"abl-policy", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			res, err := AblationPolicy(ctx, ablationConfig(seed, quick, workers))
			out := Outcome{Text: res.Format(), ACFraction: -1, Policy: "grid", Result: res}
			for _, row := range res.Rows {
				out.Crashes += boolCount(row.Crashed)
				// Report the paper-default policy's AC fraction as the headline.
				if row.Policy == rta.DefaultPolicyName {
					out.ACFraction = row.ACFraction
				}
			}
			return out, err
		}},
		{"abl-return", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			res, err := AblationReturn(ctx, ablationConfig(seed, quick, workers))
			out := Outcome{Text: res.Format(), ACFraction: -1, Result: res}
			for _, row := range res.Rows {
				out.Crashes += boolCount(row.Crashed)
			}
			if len(res.Rows) > 0 {
				out.ACFraction = res.Rows[0].ACFraction
			}
			return out, err
		}},
		{"scenarios", func(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
			cfg := fleet.GridConfig{Specs: scenario.All(), Seeds: fleet.Seeds(seed, 3), Duration: 30 * time.Second}
			if quick {
				cfg.Seeds = fleet.Seeds(seed, 2)
				cfg.Duration = 10 * time.Second
			}
			rep := fleet.Run(ctx, fleet.ScenarioGrid(cfg), fleet.Options{Workers: workers})
			out := Outcome{Text: formatScenarioSweep(rep), Crashes: rep.Crashes, ACFraction: -1, Result: rep}
			if s := rep.ModuleStats("safe-motion-primitive"); s.ACTime+s.SCTime > 0 {
				out.ACFraction = s.ACFraction()
			}
			return out, rep.FirstErr()
		}},
	}
}

// ablationConfig is the configuration all three ablations share.
func ablationConfig(seed int64, quick bool, workers int) AblationConfig {
	cfg := AblationConfig{Seed: seed + 5, Workers: workers}
	if quick {
		cfg.Duration = 40 * time.Second
	}
	return cfg
}

// formatScenarioSweep appends per-mission verdict lines to the fleet summary.
func formatScenarioSweep(rep *fleet.Report) string {
	text := "Scenario registry sweep (every registered workload x seeds)\n" + rep.Format()
	for _, res := range rep.Results {
		if res.Err != nil {
			text += fmt.Sprintf("  %-44s ERROR: %v\n", res.Name, res.Err)
			continue
		}
		m := res.Metrics
		text += fmt.Sprintf("  %-44s crashed=%-5v landed=%-5v AC→SC=%-3d targets=%d\n",
			res.Name, m.Crashed, m.Landed, res.Disengagements(), m.TargetsVisited)
	}
	return text
}

func boolCount(b bool) int {
	if b {
		return 1
	}
	return 0
}

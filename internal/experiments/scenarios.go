package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

// scenarioSweep flies every registered scenario at 3 seeds for 30 s, 2 seeds
// for 10 s in quick mode, starting at the catalogue seed and bounded at
// workers. The outcome's AC fraction is the motion-primitive module's over
// the whole sweep.
func scenarioSweep(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
	cfg := fleet.GridConfig{Specs: scenario.All(), Seeds: fleet.Seeds(seed, 3), Duration: 30 * time.Second}
	if quick {
		cfg.Seeds = fleet.Seeds(seed, 2)
		cfg.Duration = 10 * time.Second
	}
	rep := fleet.Run(ctx, fleet.ScenarioGrid(cfg), fleet.Options{Workers: workers})
	return Outcome{Text: formatScenarioSweep(rep), Result: rep}, rep.FirstErr()
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
			res.Name, m.Crashed, m.Landed, m.TotalDisengagements(), m.TargetsVisited)
	}
	return text
}

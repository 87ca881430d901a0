package service

import (
	"context"

	"repro/internal/falsify"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// FalsifyJobSpec is a falsification-campaign request — the second job type
// the server runs. Where a JobSpec sweeps a fixed grid, a falsify job hunts:
// it hands the scenario to internal/falsify's adversarial search and streams
// campaign progress and counterexample finds over the same JSONL event
// endpoints as a sweep job.
type FalsifyJobSpec struct {
	// Scenario names the base scenario the search explores around.
	Scenario string `json:"scenario"`
	// Strategy is a falsify strategy spec ("random", "guided:8",
	// "schedule:16"); empty selects the default.
	Strategy string `json:"strategy,omitempty"`
	// Seed seeds the campaign; zero defaults to 1.
	Seed int64 `json:"seed,omitempty"`
	// Budget bounds candidate executions; zero defaults to
	// falsify.DefaultBudget.
	Budget int `json:"budget,omitempty"`
	// Duration overrides the per-candidate mission horizon.
	Duration Duration `json:"duration,omitempty"`
	// Base is the campaign-wide spec delta applied before searching.
	Base scenario.Delta `json:"base,omitzero"`
	// Policies restricts the policy mutation pool; empty means every
	// registered policy.
	Policies []string `json:"policies,omitempty"`
	// ClampStorm sets the clamp-storm threshold (0 = default, <0 disables).
	ClampStorm int `json:"clamp_storm,omitempty"`
	// MaxCounterexamples bounds the ranked result list.
	MaxCounterexamples int `json:"max_counterexamples,omitempty"`
	// Register auto-registers counterexamples as "falsified/<hash>"
	// scenarios, visible in GET /scenarios and runnable as ordinary jobs.
	Register bool `json:"register,omitempty"`
	// Workers bounds the campaign's evaluation pool (never raised above the
	// server's own bound). Worker count never changes campaign results.
	Workers int `json:"workers,omitempty"`
}

// config compiles the wire spec into a campaign configuration. A wire
// duration wins over the base's duration_ns.
func (fs FalsifyJobSpec) config() falsify.Config {
	base := fs.Base
	if d := fs.Duration.present(); d != nil {
		base.Duration = d
	}
	return falsify.Config{
		Scenario:           fs.Scenario,
		Strategy:           fs.Strategy,
		Seed:               fs.Seed,
		Budget:             fs.Budget,
		Base:               base,
		Policies:           fs.Policies,
		ClampStorm:         fs.ClampStorm,
		MaxCounterexamples: fs.MaxCounterexamples,
		AutoRegister:       fs.Register,
	}
}

// request implements kind: a campaign's cells are its execution budget.
func (fs FalsifyJobSpec) request() (string, int, int) {
	cells := fs.Budget
	if cells <= 0 {
		cells = falsify.DefaultBudget
	}
	return fs.Scenario, cells, fs.Workers
}

// resolve implements kind: the campaign configuration validates itself.
func (fs FalsifyJobSpec) resolve() (kind, error) { return fs, fs.config().Validate() }

// run implements kind. The job's fan-out is wired straight into the engine's
// observer list, so CampaignProgress and CounterexampleFound events stream to
// /jobs/{id}/events subscribers exactly like sweep events do; the progress
// events also keep the job's cell counters live for polling clients.
func (fs FalsifyJobSpec) run(ctx context.Context, e env) (any, error) {
	cfg := fs.config()
	cfg.Workers = e.workers
	cfg.Observers = []obs.Observer{e.fan, obs.ObserverFunc(func(ev obs.Event) {
		if p, ok := ev.(obs.CampaignProgress); ok {
			e.progress(p.Executions, 0)
		}
	})}
	res, err := falsify.Campaign(ctx, cfg)
	return res, err
}

// view implements kind.
func (fs FalsifyJobSpec) view(v *JobView, result any) {
	v.Falsify = &fs
	v.FalsifyResult, _ = result.(*falsify.Result)
}

// report implements kind: the campaign result as is.
func (fs FalsifyJobSpec) report(result any) any { return result }

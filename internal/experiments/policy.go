package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/rta"
	"repro/internal/scenario"
)

// PolicyRow is one switching policy's verdict on the faulted ablation
// mission.
type PolicyRow struct {
	// Policy is the canonical policy spec of the row.
	Policy         string
	Crashed        bool
	Targets        int
	Distance       float64
	ACFraction     float64
	Disengagements int
	// Clamped counts the disengagements forced by the framework clamp — the
	// module overriding the policy's AC proposal in an unsafe state. Nonzero
	// only for policies (always-ac) that propose AC regardless of ttf2Δ.
	Clamped int
}

// AblationPolicyResult sweeps the switching-policy registry over the faulted
// surveillance mission — the new ablation axis the rta.Policy redesign
// opens. The paper compares its Figure 9 two-way switching against classic
// Simplex; with policies first-class, the comparison generalizes to a
// policy × scenario × seed grid: the Figure 9 baseline, dwell and hysteresis
// variants trading AC utilisation against switching rate, and the always-ac /
// always-sc bounds. Every row is safe by construction — the module clamps
// unsafe AC proposals to SC — so the sweep varies performance only, which is
// the point.
type AblationPolicyResult struct {
	Rows []PolicyRow
}

// Format prints the policy sweep.
func (r AblationPolicyResult) Format() string {
	var t table
	t.title("Ablation: switching policies (policy proposes, module disposes)")
	t.row("policy", "crashed", "targets", "distance", "AC fraction", "switches", "clamped")
	for _, row := range r.Rows {
		t.row(row.Policy, fmt.Sprint(row.Crashed), fmt.Sprint(row.Targets),
			fmt.Sprintf("%.0f m", row.Distance), fmtPct(row.ACFraction),
			fmt.Sprint(row.Disengagements), fmt.Sprint(row.Clamped))
	}
	t.line("safety is framework-enforced: even always-ac cannot crash — its unsafe AC")
	t.line("proposals are clamped to SC; policies trade AC time against switching only.")
	return t.String()
}

// ablationPolicies is the swept registry subset: the Figure 9 default, a
// dwell and a hysteresis variant with parameters that bite at the ablation
// mission's Δ = 100ms, and the two bounds.
func ablationPolicies() []string {
	return []string{
		rta.DefaultPolicyName,
		"sticky-sc:30",
		"hysteresis:5",
		"always-ac",
		"always-sc",
	}
}

// AblationPolicy runs the sweep as a scenario-grid batch: one base spec, one
// override per policy, every cell an isolated mission.
func AblationPolicy(ctx context.Context, cfg AblationConfig) (AblationPolicyResult, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 80 * time.Second
	}
	specs := ablationPolicies()
	overrides := make([]scenario.Override, len(specs))
	for i, pol := range specs {
		pol := pol
		overrides[i] = scenario.Override{
			Name:  pol,
			Apply: func(sp *scenario.Spec) { sp.SwitchPolicy = pol },
		}
	}
	missions := fleet.ScenarioGrid(fleet.GridConfig{
		Specs:     []scenario.Spec{ablationSpec(cfg.Duration)},
		Overrides: overrides,
		Seeds:     []int64{cfg.Seed},
	})
	rep := fleet.Run(ctx, missions, fleet.Options{Workers: cfg.Workers})
	if err := rep.FirstErr(); err != nil {
		return AblationPolicyResult{}, fmt.Errorf("ablation policy: %w", err)
	}
	var res AblationPolicyResult
	for i, out := range rep.Results {
		m := out.Metrics
		row := PolicyRow{Policy: specs[i], Crashed: m.Crashed, Targets: m.TargetsVisited, Distance: m.DistanceFlown}
		if s, ok := m.Modules["safe-motion-primitive"]; ok {
			row.ACFraction = s.ACFraction()
			row.Disengagements = s.Disengagements
			row.Clamped = s.Clamped
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

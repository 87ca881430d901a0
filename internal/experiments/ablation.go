package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/scenario"
)

// AblationConfig parameterises the design-choice ablations of Remark 3.3.
type AblationConfig struct {
	Seed     int64
	Duration time.Duration
	// Workers bounds the fleet worker pool the configuration grid is
	// dispatched across (0 = GOMAXPROCS).
	Workers int
}

// DeltaRow is one (Δ, hysteresis) configuration.
type DeltaRow struct {
	Delta          time.Duration
	Hysteresis     float64
	Crashed        bool
	Disengagements int
	ACFraction     float64
	Targets        int
}

// AblationDeltaResult sweeps the DM period Δ and the φsafer hysteresis,
// quantifying Remark 3.3: a large Δ (or large φsafer margin) behaves
// conservatively — more of the mission runs under SC; a small Δ with a tight
// φsafer maximises AC usage but increases switching.
type AblationDeltaResult struct {
	Rows []DeltaRow
}

// Format prints the Δ/hysteresis sweep.
func (r AblationDeltaResult) Format() string {
	var t table
	t.title("Ablation (Remark 3.3): DM period Δ and φsafer hysteresis")
	t.row("Δ", "hysteresis", "crashed", "switches", "AC fraction", "targets")
	for _, row := range r.Rows {
		t.row(row.Delta.String(), fmt.Sprintf("%.1f", row.Hysteresis),
			fmt.Sprint(row.Crashed), fmt.Sprint(row.Disengagements),
			fmtPct(row.ACFraction), fmt.Sprint(row.Targets))
	}
	t.line("paper: large Δ ⇒ conservative (SC in control more); small Δ with small φsafer")
	t.line("margin ⇒ more AC usage but more frequent AC/SC switching.")
	return t.String()
}

// ablationSpec declares the faulted surveillance mission both ablations
// sweep over: the city tour under heavy periodic AC faulting, so the
// switching policy under study is exercised many times per run.
func ablationSpec(duration time.Duration) scenario.Spec {
	return scenario.Spec{
		Name: "ablation",
		Targets: []geom.Vec3{
			geom.V(3, 3, 2), geom.V(46, 3, 2.5), geom.V(46, 46, 2), geom.V(3, 46, 2.5),
		},
		Faults: scenario.FaultProfile{
			First:      8 * time.Second,
			Every:      11 * time.Second,
			Len:        1200 * time.Millisecond,
			Dir:        geom.V(1, 0.4, 0),
			MaxWindows: 6,
		},
		Duration: duration,
	}
}

// AblationDelta runs the sweep: the 12-point (Δ, hysteresis) grid is a
// scenario-grid batch — one base spec, one override per grid point — every
// grid point an isolated mission.
func AblationDelta(ctx context.Context, cfg AblationConfig) (AblationDeltaResult, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 80 * time.Second
	}
	type gridPoint struct {
		delta time.Duration
		hyst  float64
	}
	var grid []gridPoint
	var overrides []scenario.Override
	for _, delta := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond} {
		for _, hyst := range []float64{1.0, 2.0, 4.0} {
			gp := gridPoint{delta, hyst}
			grid = append(grid, gp)
			overrides = append(overrides, scenario.Override{
				Name: fmt.Sprintf("Δ=%v/hyst=%.1f", gp.delta, gp.hyst),
				Apply: func(sp *scenario.Spec) {
					sp.MotionDelta = gp.delta
					sp.Hysteresis = gp.hyst
				},
			})
		}
	}
	missions := fleet.ScenarioGrid(fleet.GridConfig{
		Specs:     []scenario.Spec{ablationSpec(cfg.Duration)},
		Overrides: overrides,
		Seeds:     []int64{cfg.Seed},
	})
	rep := fleet.Run(ctx, missions, fleet.Options{Workers: cfg.Workers})
	if err := rep.FirstErr(); err != nil {
		return AblationDeltaResult{}, fmt.Errorf("ablation: %w", err)
	}
	var res AblationDeltaResult
	for i, out := range rep.Results {
		m := out.Metrics
		row := DeltaRow{Delta: grid[i].delta, Hysteresis: grid[i].hyst, Crashed: m.Crashed, Targets: m.TargetsVisited}
		if s, ok := m.Modules["safe-motion-primitive"]; ok {
			row.Disengagements = s.Disengagements
			row.ACFraction = s.ACFraction()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ReturnRow is one switching-policy configuration.
type ReturnRow struct {
	Policy         string
	Crashed        bool
	Targets        int
	Distance       float64
	ACFraction     float64
	Disengagements int
}

// AblationReturnResult compares the paper's two-way switching (SC returns
// control to AC once in φsafer) against classic one-way Simplex (SC keeps
// control forever after the first disengagement) — the paper's headline
// novelty: "existing techniques do not provide a principled and safe way for
// DM to switch back from SC to AC".
type AblationReturnResult struct {
	Rows []ReturnRow
}

// Format prints the switching-policy comparison.
func (r AblationReturnResult) Format() string {
	var t table
	t.title("Ablation: two-way switching (SOTER) vs one-way Simplex")
	t.row("policy", "crashed", "targets", "distance", "AC fraction", "switches")
	for _, row := range r.Rows {
		t.row(row.Policy, fmt.Sprint(row.Crashed), fmt.Sprint(row.Targets),
			fmt.Sprintf("%.0f m", row.Distance), fmtPct(row.ACFraction), fmt.Sprint(row.Disengagements))
	}
	t.line("paper: returning control to AC after recovery preserves performance; classic")
	t.line("Simplex degrades to the conservative SC for the rest of the mission.")
	return t.String()
}

// AblationReturn runs the comparison, both switching policies simulating
// concurrently as a two-override scenario-grid batch.
func AblationReturn(ctx context.Context, cfg AblationConfig) (AblationReturnResult, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 80 * time.Second
	}
	policies := []struct {
		name   string
		oneWay bool
	}{
		{"two-way (SOTER)", false},
		{"one-way (Simplex)", true},
	}
	overrides := make([]scenario.Override, len(policies))
	for i, pol := range policies {
		pol := pol
		overrides[i] = scenario.Override{
			Name:  pol.name,
			Apply: func(sp *scenario.Spec) { sp.OneWaySwitching = pol.oneWay },
		}
	}
	missions := fleet.ScenarioGrid(fleet.GridConfig{
		Specs:     []scenario.Spec{ablationSpec(cfg.Duration)},
		Overrides: overrides,
		Seeds:     []int64{cfg.Seed},
	})
	rep := fleet.Run(ctx, missions, fleet.Options{Workers: cfg.Workers})
	if err := rep.FirstErr(); err != nil {
		return AblationReturnResult{}, fmt.Errorf("ablation return: %w", err)
	}
	var res AblationReturnResult
	for i, out := range rep.Results {
		m := out.Metrics
		row := ReturnRow{Policy: policies[i].name, Crashed: m.Crashed, Targets: m.TargetsVisited, Distance: m.DistanceFlown}
		if s, ok := m.Modules["safe-motion-primitive"]; ok {
			row.ACFraction = s.ACFraction()
			row.Disengagements = s.Disengagements
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

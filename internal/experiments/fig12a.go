package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mission"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Fig12aRow is one configuration of the comparison.
type Fig12aRow struct {
	Mode           string
	TourTime       time.Duration
	Collisions     int
	Disengagements int
	ACFraction     float64
}

// Fig12aResult reproduces the Figure 12a timing numbers: the g1→g4 mission
// takes 10 s with only the unsafe AC (which can collide), 14 s with the
// RTA-protected motion primitive, and 24 s with only the safe controller —
// RTA is the "safe middle ground without sacrificing performance too much".
type Fig12aResult struct {
	Rows []Fig12aRow
}

// Format prints the Figure 12a comparison table.
func (r Fig12aResult) Format() string {
	var t table
	t.title("Figure 12a: g1..g4 tour time — AC only vs RTA-protected vs SC only")
	t.row("configuration", "tour time", "collisions", "disengagements", "AC fraction")
	for _, row := range r.Rows {
		t.row(row.Mode, fmtDur(row.TourTime), fmt.Sprint(row.Collisions),
			fmt.Sprint(row.Disengagements), fmtPct(row.ACFraction))
	}
	t.line("paper: 10 s AC-only (collides), 14 s RTA, 24 s SC-only.")
	return t.String()
}

// fig12a runs the three-way comparison: the registered corner-hazard-tour
// scenario (motion layer only, waypoints deliberately near the hazard
// blocks; the aggressive controller's own corner overshoot is the hazard,
// exactly as in the paper's timing comparison) with the protection mode as
// the only override. Each row averages 2 g1..g4 tours, 1 in quick mode, at
// catalogue seed + 3. The outcome's crashes are the collisions summed over
// the rows, its AC fraction the RTA row's.
func fig12a(ctx context.Context, seed int64, quick bool, _ int) (Outcome, error) {
	tours := 2
	if quick {
		tours = 1
	}
	seed += 3
	base := scenario.MustGet("corner-hazard-tour")
	var res Fig12aResult
	for _, mode := range []mission.ProtectionMode{
		mission.ProtectACOnly, mission.ProtectRTA, mission.ProtectSCOnly,
	} {
		mode := mode
		spec := base.With(scenario.Override{Apply: func(sp *scenario.Spec) { sp.Protection = mode }})
		rcfg, err := spec.Build(seed)
		if err != nil {
			return Outcome{}, fmt.Errorf("fig12a %v: %w", mode, err)
		}
		rcfg.KeepFlyingAfterCrash = true // score collisions, finish the tour
		rcfg.StopAfterVisits = tours * len(base.Targets)
		rcfg.Context = ctx
		out, err := sim.Run(rcfg)
		if err != nil {
			return Outcome{}, fmt.Errorf("fig12a %v: %w", mode, err)
		}
		m := out.Metrics
		row := Fig12aRow{
			Mode:       mode.String(),
			TourTime:   m.Duration / time.Duration(tours),
			Collisions: m.Collisions,
		}
		if s, ok := m.Modules["safe-motion-primitive"]; ok {
			row.Disengagements = s.Disengagements
			row.ACFraction = s.ACFraction()
		} else if mode == mission.ProtectACOnly {
			row.ACFraction = 1
		}
		res.Rows = append(res.Rows, row)
	}
	return Outcome{Text: res.Format(), Result: res}, nil
}

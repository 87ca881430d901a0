package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/plant"
	"repro/internal/rta"
	"repro/internal/sim"
)

// Fig6Config parameterises the single RTA-protected motion-primitive
// transfer.
type Fig6Config struct {
	Seed int64
}

// Fig6Result reproduces the behaviour of Figures 6 and 12a's inset: during a
// single wi → wf transfer with a misbehaving AC, the DM detects imminent
// danger, switches to SC (red dot), the SC recovers the drone into φsafer,
// control returns to AC (green dot), and the mission completes inside φsafe.
type Fig6Result struct {
	Reached        bool
	Crashed        bool
	Disengagements int
	Reengagements  int
	MinClearance   float64
	TransferTime   time.Duration
	SwitchTimes    []time.Duration
}

// Format prints the Figure 6 narrative values.
func (r Fig6Result) Format() string {
	var t table
	t.title("Figure 6: one RTA-protected motion-primitive transfer (faulty AC)")
	t.row("reached", "crashed", "AC→SC", "SC→AC", "min clearance", "time")
	t.row(fmt.Sprint(r.Reached), fmt.Sprint(r.Crashed),
		fmt.Sprint(r.Disengagements), fmt.Sprint(r.Reengagements),
		fmt.Sprintf("%.2f m", r.MinClearance), fmtDur(r.TransferTime))
	for i, ts := range r.SwitchTimes {
		t.line("  switch %d at t=%v", i+1, fmtDur(ts))
	}
	t.line("paper: the drone always remains inside φsafe; control returns to AC after recovery.")
	return t.String()
}

// Fig6 runs the transfer.
func Fig6(ctx context.Context, cfg Fig6Config) (Fig6Result, error) {
	ws, _ := fig5Workspace()
	start := geom.V(5, 5, 2)
	goal := geom.V(25, 5, 2)

	mcfg := mission.DefaultStackConfig(cfg.Seed)
	mcfg.Workspace = ws
	mcfg.WithPlannerModule = false
	mcfg.WithBatteryModule = false
	// The goal sits close to the hazard block beyond it.
	mcfg.PlanMargin = mcfg.Margin + 0.05
	mcfg.App = mission.AppConfig{Points: []geom.Vec3{goal}, Workspace: ws}
	// A fault mid-transfer pushes the drone toward the hazard block beyond
	// the goal.
	// The fault fires on final approach, pushing the drone through the goal
	// toward the hazard block beyond it.
	mcfg.ACFaults = []controller.Fault{{
		Kind:  controller.FaultFullThrust,
		Start: 4500 * time.Millisecond,
		End:   8 * time.Second,
		Param: geom.V(1, 0, 0),
	}}
	st, err := mission.Build(mcfg)
	if err != nil {
		return Fig6Result{}, fmt.Errorf("fig6: %w", err)
	}
	out, err := sim.Run(sim.RunConfig{
		Stack:           st,
		Initial:         plant.State{Pos: start, Battery: 1},
		Duration:        60 * time.Second,
		Seed:            cfg.Seed,
		Context:         ctx,
		CheckInvariants: true,
		StopAfterVisits: 1,
	})
	if err != nil {
		return Fig6Result{}, fmt.Errorf("fig6: %w", err)
	}
	m := out.Metrics
	res := Fig6Result{
		Reached:      m.TargetsVisited >= 1,
		Crashed:      m.Crashed,
		MinClearance: m.MinClearance,
		TransferTime: m.Duration,
	}
	if s, ok := m.Modules["safe-motion-primitive"]; ok {
		res.Disengagements = s.Disengagements
		res.Reengagements = s.Reengagements
	}
	for _, sw := range out.Switches {
		if sw.Module == "safe-motion-primitive" && sw.To == rta.ModeSC {
			res.SwitchTimes = append(res.SwitchTimes, sw.Time)
		}
	}
	return res, nil
}

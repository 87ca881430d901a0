package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/rta"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Fig12bConfig parameterises the surveillance-mission experiment.
type Fig12bConfig struct {
	Seed     int64
	Duration time.Duration
	// Faults injects the AC misbehaviour that produces the N1/N2 recovery
	// events of the figure.
	Faults bool
}

// Fig12bResult reproduces Figure 12b: during the surveillance mission the SC
// takes control at a handful of points (N1, N2), pushes the drone back into
// φsafer (green) and returns control; the AC is in control for most of the
// mission and the drone never collides.
type Fig12bResult struct {
	Duration       time.Duration
	Distance       float64
	Targets        int
	Crashed        bool
	MinClearance   float64
	Disengagements int
	Reengagements  int
	ACFraction     float64
	RecoveryTimes  []time.Duration
}

// Format prints the Figure 12b mission summary.
func (r Fig12bResult) Format() string {
	var t table
	t.title("Figure 12b: RTA-protected surveillance mission (city workspace)")
	t.row("duration", "distance", "targets", "crashed", "min clearance")
	t.row(fmtDur(r.Duration), fmt.Sprintf("%.0f m", r.Distance), fmt.Sprint(r.Targets),
		fmt.Sprint(r.Crashed), fmt.Sprintf("%.2f m", r.MinClearance))
	t.row("AC→SC", "SC→AC", "AC fraction", "", "")
	t.row(fmt.Sprint(r.Disengagements), fmt.Sprint(r.Reengagements), fmtPct(r.ACFraction), "", "")
	for i, ts := range r.RecoveryTimes {
		if i >= 6 {
			t.line("  ... and %d more recovery points", len(r.RecoveryTimes)-i)
			break
		}
		t.line("  N%d at t=%v", i+1, fmtDur(ts))
	}
	t.line("paper: Nsc takes control at N1, N2, pushes the drone back into φsafer and")
	t.line("returns control; AC is in control for most of the surveillance mission.")
	return t.String()
}

// fig12bSpec declares the Figure 12b mission as an override of the
// registered surveillance-city scenario.
func fig12bSpec(duration time.Duration, faults bool) scenario.Spec {
	return scenario.MustGet("surveillance-city").With(scenario.Override{Apply: func(sp *scenario.Spec) {
		sp.Duration = duration
		if !faults {
			sp.Faults = scenario.FaultProfile{}
		}
	}})
}

// Fig12b runs the surveillance mission.
func Fig12b(ctx context.Context, cfg Fig12bConfig) (Fig12bResult, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Minute
	}
	rcfg, err := fig12bSpec(cfg.Duration, cfg.Faults).Build(cfg.Seed)
	if err != nil {
		return Fig12bResult{}, fmt.Errorf("fig12b: %w", err)
	}
	rcfg.Context = ctx
	out, err := sim.Run(rcfg)
	if err != nil {
		return Fig12bResult{}, fmt.Errorf("fig12b: %w", err)
	}
	m := out.Metrics
	res := Fig12bResult{
		Duration:     m.Duration,
		Distance:     m.DistanceFlown,
		Targets:      m.TargetsVisited,
		Crashed:      m.Crashed,
		MinClearance: m.MinClearance,
	}
	if s, ok := m.Modules["safe-motion-primitive"]; ok {
		res.Disengagements = s.Disengagements
		res.Reengagements = s.Reengagements
		res.ACFraction = s.ACFraction()
	}
	for _, sw := range out.Switches {
		if sw.Module == "safe-motion-primitive" && sw.To == rta.ModeSC {
			res.RecoveryTimes = append(res.RecoveryTimes, sw.Time)
		}
	}
	return res, nil
}

// Fig12cConfig parameterises the battery-safety experiment.
type Fig12cConfig struct {
	Seed          int64
	InitialCharge float64
	DrainMultiple float64
}

// Fig12cResult reproduces Figure 12c: the battery falls below the safety
// threshold, the battery DM transfers control to the certified lander, and
// the drone lands with charge to spare — φbat holds.
type Fig12cResult struct {
	EngageTime  time.Duration
	Landed      bool
	LandTime    time.Duration
	Crashed     bool
	FinalCharge float64
	Tmax        float64
	CostStar    float64
}

// Format prints the Figure 12c summary.
func (r Fig12cResult) Format() string {
	var t table
	t.title("Figure 12c: battery-safety RTA — mission aborted, drone lands safely")
	t.row("lander engaged", "landed", "land time", "crashed", "final charge")
	t.row(fmtDur(r.EngageTime), fmt.Sprint(r.Landed), fmtDur(r.LandTime),
		fmt.Sprint(r.Crashed), fmtPct(r.FinalCharge))
	t.line("switch condition: bt − cost* < Tmax with Tmax=%.4f, cost*=%.5f", r.Tmax, r.CostStar)
	t.line("paper: when battery falls below the threshold, DM transfers control to Nsc,")
	t.line("which lands the drone (battery never reaches zero in flight).")
	return t.String()
}

// Fig12c runs the battery-safety experiment.
func Fig12c(ctx context.Context, cfg Fig12cConfig) (Fig12cResult, error) {
	spec := scenario.MustGet("battery-stress").With(scenario.Override{Apply: func(sp *scenario.Spec) {
		if cfg.InitialCharge > 0 {
			sp.InitialBattery = cfg.InitialCharge
		}
		if cfg.DrainMultiple > 0 {
			sp.DrainMultiple = cfg.DrainMultiple
		}
	}})
	rcfg, err := spec.Build(cfg.Seed)
	if err != nil {
		return Fig12cResult{}, fmt.Errorf("fig12c: %w", err)
	}
	rcfg.Context = ctx
	out, err := sim.Run(rcfg)
	if err != nil {
		return Fig12cResult{}, fmt.Errorf("fig12c: %w", err)
	}
	st := rcfg.Stack
	m := out.Metrics
	res := Fig12cResult{
		Landed:      m.Landed,
		LandTime:    m.LandTime,
		Crashed:     m.Crashed,
		FinalCharge: m.BatteryAtEnd,
		Tmax:        st.Monitor.Tmax(),
		CostStar:    st.Monitor.CostStar(),
	}
	for _, sw := range out.Switches {
		if sw.Module == "battery-safety" && sw.To == rta.ModeSC {
			res.EngageTime = sw.Time
			break
		}
	}
	return res, nil
}

// Fig12bFleetConfig parameterises the multi-seed surveillance sweep: the
// Figure 12b mission repeated across many seeds through the fleet engine.
// The paper flies the mission once; the sweep turns its headline claim — SC
// takes over at the N points and the drone never collides — into a
// statistical statement across seeds.
type Fig12bFleetConfig struct {
	BaseSeed int64
	// Missions is the number of seeded repetitions (default 8).
	Missions int
	Duration time.Duration
	Faults   bool
	// Workers bounds the fleet worker pool (0 = GOMAXPROCS).
	Workers int
}

// Fig12bFleetResult aggregates the sweep.
type Fig12bFleetResult struct {
	Missions            int
	Workers             int
	Crashes             int
	MeanDisengagements  float64
	MeanACFraction      float64
	TotalDistanceKm     float64
	InvariantViolations int
	SimTime             time.Duration
	Wall                time.Duration
	Throughput          float64 // missions per wall-clock second
}

// Format prints the sweep summary.
func (r Fig12bFleetResult) Format() string {
	var t table
	t.title("Figure 12b fleet sweep: seeded surveillance missions in parallel")
	t.row("missions", "workers", "crashes", "mean AC→SC", "mean AC frac")
	t.row(fmt.Sprint(r.Missions), fmt.Sprint(r.Workers), fmt.Sprint(r.Crashes),
		fmt.Sprintf("%.1f", r.MeanDisengagements), fmtPct(r.MeanACFraction))
	t.line("distance %.2f km  sim %v  wall %v  %.2f missions/s  φInv violations %d",
		r.TotalDistanceKm, fmtDur(r.SimTime), fmtDur(r.Wall), r.Throughput, r.InvariantViolations)
	t.line("paper flies this mission once; across seeds the protected stack should")
	t.line("keep the crash count at zero while the AC stays in control most of the time.")
	return t.String()
}

// Fig12bFleet runs the sweep.
func Fig12bFleet(ctx context.Context, cfg Fig12bFleetConfig) (Fig12bFleetResult, error) {
	if cfg.Missions <= 0 {
		cfg.Missions = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Minute
	}
	missions := fleet.ScenarioGrid(fleet.GridConfig{
		Specs: []scenario.Spec{fig12bSpec(cfg.Duration, cfg.Faults)},
		Seeds: fleet.Seeds(cfg.BaseSeed, cfg.Missions),
	})
	rep := fleet.Run(ctx, missions, fleet.Options{Workers: cfg.Workers})
	if err := rep.FirstErr(); err != nil {
		return Fig12bFleetResult{}, fmt.Errorf("fig12b fleet: %w", err)
	}
	res := Fig12bFleetResult{
		Missions:            rep.Missions,
		Workers:             rep.Workers,
		Crashes:             rep.Crashes,
		TotalDistanceKm:     rep.DistanceKm,
		InvariantViolations: rep.InvariantViolations,
		SimTime:             rep.SimTime,
		Wall:                rep.Wall,
		Throughput:          rep.Throughput(),
	}
	if s := rep.ModuleStats("safe-motion-primitive"); s.ACTime+s.SCTime > 0 {
		res.MeanACFraction = s.ACFraction()
		res.MeanDisengagements = float64(s.Disengagements) / float64(rep.Missions)
	}
	return res, nil
}

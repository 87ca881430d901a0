package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plant"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("nil stack accepted")
	}
	cfg := mission.DefaultStackConfig(1)
	cfg.App = mission.AppConfig{Points: squareTour()}
	st, err := mission.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(RunConfig{Stack: st}); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestRunRefusesUsedStack: a stack runs once. A second Run over it would
// start from the state the first left in its planners and node closures,
// so Run refuses it; a rejected config does not use the stack up, and a
// fresh stack from the same config repeats the first run.
func TestRunRefusesUsedStack(t *testing.T) {
	cfg := mission.DefaultStackConfig(1)
	cfg.App = mission.AppConfig{Points: squareTour()}
	build := func() RunConfig {
		st, err := mission.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return RunConfig{Stack: st, Initial: initialAt(geom.V(3, 3, 2)), Duration: 2 * time.Second, Seed: 1}
	}
	rc := build()
	bad := rc
	bad.Duration = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero duration accepted")
	}
	first, err := Run(rc)
	if err != nil {
		t.Fatalf("first run after a rejected config: %v", err)
	}
	res, err := Run(rc)
	if !errors.Is(err, mission.ErrStackUsed) || res != nil {
		t.Fatalf("second run over one stack = (%v, %v), want (nil, ErrStackUsed)", res, err)
	}
	again, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Metrics, first.Metrics) {
		t.Errorf("fresh stack: metrics %+v, first run %+v", again.Metrics, first.Metrics)
	}
}

// TestSCOnlyIsSafeButSlow: the safe controller alone never crashes and is
// much slower than the full stack — the right-hand column of Figure 12a.
func TestSCOnlyIsSafeButSlow(t *testing.T) {
	cfg := mission.DefaultStackConfig(3)
	cfg.Protection = mission.ProtectSCOnly
	cfg.WithPlannerModule = false
	cfg.WithBatteryModule = false
	cfg.App = mission.AppConfig{Points: squareTour()}
	st, err := mission.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Stack:    st,
		Initial:  initialAt(geom.V(3, 3, 2)),
		Duration: 60 * time.Second,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Crashed {
		t.Fatal("SC-only crashed")
	}
	if res.Metrics.DistanceFlown < 5 {
		t.Errorf("SC-only barely moved: %.1f m", res.Metrics.DistanceFlown)
	}
}

// TestLearnedControllerUnderRTA: the data-driven primitive with corrupted
// cells stays safe under the RTA module.
func TestLearnedControllerUnderRTA(t *testing.T) {
	cfg := mission.DefaultStackConfig(4)
	cfg.AC = mission.ACLearned
	cfg.LearnedBadFraction = 0.25
	cfg.App = mission.AppConfig{Points: squareTour()}
	st, err := mission.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Stack:    st,
		Initial:  initialAt(geom.V(3, 3, 2)),
		Duration: 90 * time.Second,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Crashed {
		t.Fatalf("RTA-protected learned controller crashed at %v", res.Metrics.CrashPos)
	}
	if res.Metrics.TargetsVisited == 0 {
		t.Error("no progress under the learned controller")
	}
}

// TestBuggyPlannerUnderRTA: the Section V-C property as a test — the drone
// flying on the bug-injected RRT* never collides when the planner module is
// in place.
func TestBuggyPlannerUnderRTA(t *testing.T) {
	cfg := mission.DefaultStackConfig(5)
	cfg.PlannerBug = plan.BugSkipEdgeCheck
	cfg.PlannerBugRate = 0.35
	cfg.App = mission.AppConfig{Random: true}
	st, err := mission.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Stack:    st,
		Initial:  initialAt(geom.V(3, 3, 2)),
		Duration: 60 * time.Second,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Crashed {
		t.Fatalf("crash with RTA-protected buggy planner at %v", res.Metrics.CrashPos)
	}
	if res.Metrics.Modules["safe-motion-planner"].Disengagements == 0 {
		t.Error("the planner DM never caught a bad plan at 35% bug rate")
	}
}

// TestJitterCausesDrops: the burst-outage scheduler model actually drops
// firings, and an RTOS-like run (zero jitter) drops none.
func TestJitterCausesDrops(t *testing.T) {
	cfg := mission.DefaultStackConfig(6)
	cfg.App = mission.AppConfig{Points: squareTour()}
	for i := 0; i < 4; i++ {
		start := time.Duration(8+11*i) * time.Second
		cfg.ACFaults = append(cfg.ACFaults, controller.Fault{
			Kind:  controller.FaultFullThrust,
			Start: start,
			End:   start + 1200*time.Millisecond,
			Param: geom.V(1, 0.4, 0),
		})
	}
	st, err := mission.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withJitter, err := Run(RunConfig{
		Stack:        st,
		Initial:      initialAt(geom.V(3, 3, 2)),
		Duration:     50 * time.Second,
		Seed:         6,
		JitterProb:   0.005,
		JitterSCOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if withJitter.Metrics.DroppedFirings == 0 {
		t.Error("jitter produced no dropped firings")
	}

	st2, err := mission.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rtos, err := Run(RunConfig{
		Stack:    st2,
		Initial:  initialAt(geom.V(3, 3, 2)),
		Duration: 50 * time.Second,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rtos.Metrics.DroppedFirings != 0 {
		t.Error("RTOS run dropped firings")
	}
	if rtos.Metrics.Crashed {
		t.Error("RTOS run crashed")
	}
}

// TestBatteryLandingUnderFastDrain is the Figure 12c scenario as a test.
func TestBatteryLandingUnderFastDrain(t *testing.T) {
	params := plant.DefaultParams()
	params.IdleDrainPerSec *= 30
	params.AccelDrainPerSec *= 30
	cfg := mission.DefaultStackConfig(7)
	cfg.PlantParams = params
	cfg.App = mission.AppConfig{Points: squareTour()}
	st, err := mission.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Stack:    st,
		Initial:  plant.State{Pos: geom.V(3, 3, 2), Battery: 0.9},
		Duration: 5 * time.Minute,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Crashed {
		t.Fatalf("φbat violated: crash at t=%v", m.CrashTime)
	}
	if !m.Landed {
		t.Fatal("drone did not land")
	}
	if m.BatteryAtEnd <= 0 {
		t.Error("battery hit zero")
	}
	if m.Modules["battery-safety"].Disengagements != 1 {
		t.Errorf("battery disengagements = %d, want 1", m.Modules["battery-safety"].Disengagements)
	}
}

// TestTrajectoryRecording: the sample stream is a monotone trace with a
// sample on every 100 ms grid point.
func TestTrajectoryRecording(t *testing.T) {
	var traj []obs.TrajectorySample
	if _, err := Run(observedRun(t, 8, trajectoryInto(&traj))); err != nil {
		t.Fatal(err)
	}
	grid := 0
	for i, s := range traj {
		if i > 0 && s.T < traj[i-1].T {
			t.Fatal("trajectory time not monotone")
		}
		if s.T%(100*time.Millisecond) == 0 {
			grid++
		}
	}
	if grid != 80 {
		t.Fatalf("trajectory has %d grid samples over 8s, want 80", grid)
	}
}

// TestOffLatticeDurationTerminates: a Duration between firing instants ends
// the run at the last firing before it instead of spinning forever.
func TestOffLatticeDurationTerminates(t *testing.T) {
	cfg := observedRun(t, 1)
	cfg.Duration = 2050 * time.Millisecond
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	cfg.Context = ctx
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Metrics.Duration; d <= 2*time.Second || d > cfg.Duration {
		t.Errorf("run ended at %v, want in (2s, %v]", d, cfg.Duration)
	}
}

func TestModuleStatsACFraction(t *testing.T) {
	s := ModuleStats{ACTime: 3 * time.Second, SCTime: time.Second}
	if got := s.ACFraction(); got != 0.75 {
		t.Errorf("ACFraction = %v", got)
	}
	if got := (ModuleStats{}).ACFraction(); got != 0 {
		t.Errorf("empty ACFraction = %v", got)
	}
}

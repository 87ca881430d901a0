package sim

import (
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/geom"
	"repro/internal/mission"
)

// faultWindows drives the AC full-thrust toward the obstacle field several
// times during the mission — the paper's fault-injection experiment.
func faultWindows() []controller.Fault {
	var fs []controller.Fault
	for i := 0; i < 6; i++ {
		start := time.Duration(8+10*i) * time.Second
		fs = append(fs, controller.Fault{
			Kind:  controller.FaultFullThrust,
			Start: start,
			End:   start + 1500*time.Millisecond,
			Param: geom.V(1, 1, 0),
		})
	}
	return fs
}

// TestRTASurvivesInjectedFaults: with the RTA module, injected full-thrust
// faults cause disengagements but no crash.
func TestRTASurvivesInjectedFaults(t *testing.T) {
	cfg := mission.DefaultStackConfig(2)
	cfg.ACFaults = faultWindows()
	cfg.App = mission.AppConfig{Points: squareTour()}
	st, err := mission.Build(cfg)
	if err != nil {
		t.Fatalf("build stack: %v", err)
	}
	res, err := Run(RunConfig{
		Stack:    st,
		Initial:  initialAt(geom.V(3, 3, 2)),
		Duration: 70 * time.Second,
		Seed:     2,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	m := res.Metrics
	t.Logf("dist=%.1fm targets=%d crash=%v disengagements=%d acFrac=%.2f",
		m.DistanceFlown, m.TargetsVisited, m.Crashed,
		m.Modules["safe-motion-primitive"].Disengagements,
		m.Modules["safe-motion-primitive"].ACFraction())
	if m.Crashed {
		t.Fatalf("RTA-protected drone crashed at t=%v pos=%v", m.CrashTime, m.CrashPos)
	}
	if m.Modules["safe-motion-primitive"].Disengagements == 0 {
		t.Fatalf("expected the motion-primitive SC to take over during faults")
	}
}

// TestACOnlyCrashesUnderFaults: the same faults without RTA protection crash
// the drone — the contrast the paper's evaluation draws.
func TestACOnlyCrashesUnderFaults(t *testing.T) {
	cfg := mission.DefaultStackConfig(2)
	cfg.ACFaults = faultWindows()
	cfg.Protection = mission.ProtectACOnly
	cfg.App = mission.AppConfig{Points: squareTour()}
	st, err := mission.Build(cfg)
	if err != nil {
		t.Fatalf("build stack: %v", err)
	}
	res, err := Run(RunConfig{
		Stack:    st,
		Initial:  initialAt(geom.V(3, 3, 2)),
		Duration: 70 * time.Second,
		Seed:     2,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	t.Logf("unprotected: dist=%.1fm crash=%v crashPos=%v",
		res.Metrics.DistanceFlown, res.Metrics.Crashed, res.Metrics.CrashPos)
	if !res.Metrics.Crashed {
		t.Fatalf("expected the unprotected drone to crash under injected faults")
	}
}

func squareTour() []geom.Vec3 {
	return []geom.Vec3{
		geom.V(3, 3, 2),
		geom.V(46, 3, 2),
		geom.V(46, 46, 2),
		geom.V(3, 46, 2),
	}
}

package sim

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mission"
)

// TestSmokeSurveillance runs the full RTA-protected stack for a short
// mission and checks the drone makes progress without crashing.
func TestSmokeSurveillance(t *testing.T) {
	cfg := mission.DefaultStackConfig(1)
	cfg.App = mission.AppConfig{
		Points: []geom.Vec3{
			geom.V(3, 3, 2),
			geom.V(46, 3, 2),
			geom.V(46, 46, 2),
			geom.V(3, 46, 2),
		},
	}
	st, err := mission.Build(cfg)
	if err != nil {
		t.Fatalf("build stack: %v", err)
	}
	res, err := Run(RunConfig{
		Stack:           st,
		Initial:         initialAt(geom.V(3, 3, 2)),
		Duration:        60 * time.Second,
		Seed:            1,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	m := res.Metrics
	t.Logf("duration=%v dist=%.1fm targets=%d crash=%v minClear=%.2f drops=%d invViol=%d",
		m.Duration, m.DistanceFlown, m.TargetsVisited, m.Crashed, m.MinClearance, m.DroppedFirings, m.InvariantViolations)
	for name, s := range m.Modules {
		t.Logf("module %s: dis=%d re=%d acFrac=%.2f", name, s.Disengagements, s.Reengagements, s.ACFraction())
	}
	if m.Crashed {
		t.Fatalf("drone crashed at t=%v pos=%v", m.CrashTime, m.CrashPos)
	}
	if m.TargetsVisited < 1 {
		t.Fatalf("no surveillance targets visited (dist flown %.1fm)", m.DistanceFlown)
	}
	if m.DistanceFlown < 10 {
		t.Fatalf("drone barely moved: %.2fm", m.DistanceFlown)
	}
}

package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/mission"
	"repro/internal/reach"
)

// The experiment tests run scaled-down configurations: they validate the
// shape the paper reports (who wins, what is zero, what is non-zero), not
// absolute numbers. The full-size runs live in bench_test.go.

func TestFig5RightShape(t *testing.T) {
	res, err := Fig5Right(t.Context(), Fig5Config{Seed: 1, Laps: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.CollidingLaps == 0 {
		t.Error("unprotected third-party controller never collided")
	}
	if res.MaxOvershoot <= 0.5 {
		t.Errorf("max overshoot = %.2f, want the characteristic ≈1m", res.MaxOvershoot)
	}
	if !strings.Contains(res.Format(), "third-party") {
		t.Error("Format missing title")
	}
}

func TestFig5LeftShape(t *testing.T) {
	res, err := Fig5Left(t.Context(), Fig5Config{Seed: 5, Laps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnsafeLoops == 0 {
		t.Error("no red loops")
	}
	if res.UnsafeLoops == res.Loops {
		t.Error("no green loops")
	}
	if res.AvgDeviation >= res.MaxDeviation {
		t.Error("avg deviation should be below max")
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(t.Context(), Fig6Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Error("the protected transfer crashed")
	}
	if !res.Reached {
		t.Error("the transfer did not complete")
	}
	if res.Disengagements == 0 || res.Reengagements == 0 {
		t.Errorf("want both switch directions, got %d/%d", res.Disengagements, res.Reengagements)
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := Fig10(Fig10Config{Seed: 3, Samples: 1500})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, f := range res.Fractions {
		total += f
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("region fractions sum to %v", total)
	}
	if res.Fractions[reach.RegionSaferCore] == 0 {
		t.Error("φsafer region empty in the city workspace")
	}
	if res.Agreement < 0.8 {
		t.Errorf("analytic-vs-grid agreement = %v, want ≥ 0.8", res.Agreement)
	}
}

func TestFig12aShape(t *testing.T) {
	res, err := Fig12a(t.Context(), Fig12aConfig{Seed: 4, Tours: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byMode := map[string]Fig12aRow{}
	for _, r := range res.Rows {
		byMode[r.Mode] = r
	}
	ac, rta, sc := byMode[mission.ProtectACOnly.String()], byMode[mission.ProtectRTA.String()], byMode[mission.ProtectSCOnly.String()]
	// The paper's ordering: AC fastest but collides; RTA in between with no
	// collisions; SC slowest, safe.
	if ac.Collisions == 0 {
		t.Error("AC-only should collide")
	}
	if rta.Collisions != 0 || sc.Collisions != 0 {
		t.Errorf("protected configurations collided: rta=%d sc=%d", rta.Collisions, sc.Collisions)
	}
	if !(ac.TourTime <= rta.TourTime && rta.TourTime < sc.TourTime) {
		t.Errorf("tour-time ordering broken: ac=%v rta=%v sc=%v", ac.TourTime, rta.TourTime, sc.TourTime)
	}
	if rta.Disengagements == 0 {
		t.Error("RTA tour had no disengagements")
	}
}

func TestFig12bShape(t *testing.T) {
	res, err := Fig12b(t.Context(), Fig12bConfig{Seed: 7, Duration: 45 * time.Second, Faults: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Error("surveillance mission crashed")
	}
	if len(res.RecoveryTimes) == 0 {
		t.Error("no N-point recoveries recorded")
	}
	if res.ACFraction < 0.5 {
		t.Errorf("AC fraction = %v, want majority", res.ACFraction)
	}
}

func TestFig12bFleetShape(t *testing.T) {
	res, err := Fig12bFleet(t.Context(), Fig12bFleetConfig{
		BaseSeed: 7, Missions: 3, Duration: 30 * time.Second, Faults: true, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missions != 3 {
		t.Fatalf("missions = %d", res.Missions)
	}
	if res.Crashes != 0 {
		t.Errorf("protected sweep crashed %d times", res.Crashes)
	}
	if res.MeanACFraction < 0.5 {
		t.Errorf("mean AC fraction = %v, want majority", res.MeanACFraction)
	}
	if res.Throughput <= 0 || res.SimTime < 3*30*time.Second {
		t.Errorf("throughput %v / sim time %v not aggregated", res.Throughput, res.SimTime)
	}
	if !strings.Contains(res.Format(), "fleet sweep") {
		t.Error("Format missing title")
	}
}

func TestFig12cShape(t *testing.T) {
	res, err := Fig12c(t.Context(), Fig12cConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed || !res.Landed {
		t.Errorf("battery safety failed: %+v", res)
	}
	if res.FinalCharge <= 0 {
		t.Error("battery exhausted")
	}
	if res.EngageTime == 0 {
		t.Error("lander engage time not recorded")
	}
}

func TestSec5cShape(t *testing.T) {
	res, err := Sec5c(t.Context(), Sec5cConfig{Seed: 3, Queries: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.BuggyColliding == 0 {
		t.Error("buggy RRT* produced no colliding plans")
	}
	if res.CertColliding != 0 {
		t.Errorf("certified planner produced %d colliding plans", res.CertColliding)
	}
}

func TestSec5dShape(t *testing.T) {
	res, err := Sec5d(t.Context(), Sec5dConfig{Seed: 13, SimHours: 0.1, SegmentMinutes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	rtos := res.Rows[1]
	if rtos.Crashes != 0 {
		t.Errorf("RTOS crashes = %d, want 0 (the paper's prediction)", rtos.Crashes)
	}
	if rtos.DroppedFirings != 0 {
		t.Errorf("RTOS dropped %d firings", rtos.DroppedFirings)
	}
	if res.Rows[0].DroppedFirings == 0 {
		t.Error("best-effort run dropped no firings")
	}
}

func TestAblationReturnShape(t *testing.T) {
	res, err := AblationReturn(t.Context(), AblationConfig{Seed: 6, Duration: 45 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	two, one := res.Rows[0], res.Rows[1]
	if two.Crashed || one.Crashed {
		t.Error("an ablation run crashed")
	}
	// The paper's point: one-way Simplex degrades to SC-level performance.
	if !(two.ACFraction > one.ACFraction) {
		t.Errorf("two-way AC fraction %v should exceed one-way %v", two.ACFraction, one.ACFraction)
	}
	if !(two.Distance > one.Distance) {
		t.Errorf("two-way distance %v should exceed one-way %v", two.Distance, one.Distance)
	}
}

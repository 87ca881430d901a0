package controller

import (
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/plant"
	"repro/internal/reach"
)

// newNominal builds a well-damped PD law, the reference "reasonable"
// controller of these tests (critical damping: Kd = 2·sqrt(Kp)).
func newNominal(l Limits) *PD {
	kp := 1.5
	return &PD{Kp: kp, Kd: 2 * math.Sqrt(kp), Limits: l}
}

func testLimits() Limits { return Limits{MaxAccel: 5, MaxVel: 3} }

func TestPDPointsTowardTarget(t *testing.T) {
	pd := newNominal(testLimits())
	u := pd.Control(0, geom.V(0, 0, 0), geom.Vec3{}, geom.V(10, 0, 0))
	if u.X <= 0 || u.Y != 0 || u.Z != 0 {
		t.Errorf("control = %v, want +X", u)
	}
	// At the target with zero velocity: no command.
	u = pd.Control(0, geom.V(10, 0, 0), geom.Vec3{}, geom.V(10, 0, 0))
	if u != geom.Zero {
		t.Errorf("control at target = %v", u)
	}
	// Damping opposes velocity.
	u = pd.Control(0, geom.V(10, 0, 0), geom.V(2, 0, 0), geom.V(10, 0, 0))
	if u.X >= 0 {
		t.Errorf("control with overshoot velocity = %v, want -X", u)
	}
}

func TestPDSaturates(t *testing.T) {
	pd := NewAggressive(testLimits())
	u := pd.Control(0, geom.V(0, 0, 0), geom.Vec3{}, geom.V(1000, -1000, 1000))
	if math.Abs(u.X) > 5+1e-12 || math.Abs(u.Y) > 5+1e-12 || math.Abs(u.Z) > 5+1e-12 {
		t.Errorf("saturated control = %v", u)
	}
}

// TestAggressiveOvershoots documents the defining property of the untrusted
// controller: stepping a double integrator toward a setpoint overshoots it,
// while the nominal critically-damped law does not (appreciably).
func TestAggressiveOvershoots(t *testing.T) {
	overshoot := func(c Controller) float64 {
		p, err := plant.NewDrone(plant.DefaultParams(), 1)
		if err != nil {
			t.Fatal(err)
		}
		s := plant.State{Battery: 1}
		target := geom.V(20, 0, 0)
		worst := 0.0
		for i := 0; i < 3000; i++ {
			u := c.Control(0, s.Pos, s.Vel, target)
			s = p.Step(s, u, 10*time.Millisecond)
			if over := s.Pos.X - target.X; over > worst {
				worst = over
			}
		}
		return worst
	}
	agg := overshoot(NewAggressive(testLimits()))
	nom := overshoot(newNominal(testLimits()))
	if agg < 0.3 {
		t.Errorf("aggressive overshoot = %.3f m, want noticeable (≥0.3)", agg)
	}
	if nom > agg/2 {
		t.Errorf("nominal overshoot %.3f should be well below aggressive %.3f", nom, agg)
	}
}

func TestLearnedDeterministicPerSeed(t *testing.T) {
	l1 := NewLearned(testLimits(), 0.2, 7)
	l2 := NewLearned(testLimits(), 0.2, 7)
	l3 := NewLearned(testLimits(), 0.2, 8)
	pos, vel, target := geom.V(3, 9, 2), geom.V(1, 0, 0), geom.V(10, 10, 2)
	if l1.Control(0, pos, vel, target) != l2.Control(0, pos, vel, target) {
		t.Error("same seed must give the same policy")
	}
	differs := false
	for i := 0; i < 20 && !differs; i++ {
		p := geom.V(float64(i)*2.5, 5, 2)
		if l1.Control(0, p, vel, target) != l3.Control(0, p, vel, target) {
			differs = true
		}
	}
	if !differs {
		t.Error("different seeds should give different policies somewhere")
	}
}

// badCellFraction samples the fraction of corrupted cells of c inside the
// box: cells whose gains are the corrupted kind (hard acceleration, near-zero
// damping).
func badCellFraction(c *Learned, bounds geom.AABB) float64 {
	total, bad := 0, 0
	for x := bounds.Min.X; x < bounds.Max.X; x += c.cellSize {
		for y := bounds.Min.Y; y < bounds.Max.Y; y += c.cellSize {
			for z := bounds.Min.Z; z < bounds.Max.Z; z += c.cellSize {
				kp, kd := c.gains(geom.V(x, y, z))
				total++
				if kd < 0.5 && kp > 3 {
					bad++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total)
}

func TestLearnedBadCellFraction(t *testing.T) {
	box := geom.Box(geom.V(0, 0, 0), geom.V(60, 60, 12))
	clean := NewLearned(testLimits(), 0, 7)
	if frac := badCellFraction(clean, box); frac != 0 {
		t.Errorf("badFraction 0 produced %.2f corrupted cells", frac)
	}
	dirty := NewLearned(testLimits(), 0.3, 7)
	frac := badCellFraction(dirty, box)
	if frac < 0.1 || frac > 0.5 {
		t.Errorf("badFraction 0.3 produced %.2f corrupted cells, want ≈0.3", frac)
	}
}

func TestFaultWindows(t *testing.T) {
	inner := newNominal(testLimits())
	faulty := WithFaults(inner, testLimits(), []Fault{
		{Kind: FaultStuckZero, Start: time.Second, End: 2 * time.Second},
		{Kind: FaultInvertAxis, Start: 3 * time.Second, End: 4 * time.Second},
		{Kind: FaultFullThrust, Start: 5 * time.Second, End: 6 * time.Second, Param: geom.V(0, 1, 0)},
		{Kind: FaultBias, Start: 7 * time.Second, End: 8 * time.Second, Param: geom.V(0.5, 0, 0)},
	})
	pos, vel, target := geom.V(0, 0, 0), geom.Vec3{}, geom.V(10, 0, 0)
	clean := inner.Control(0, pos, vel, target)

	if got := faulty.Control(0, pos, vel, target); got != clean {
		t.Errorf("outside windows: %v != %v", got, clean)
	}
	if got := faulty.Control(1500*time.Millisecond, pos, vel, target); got != geom.Zero {
		t.Errorf("stuck-zero: %v", got)
	}
	if got := faulty.Control(3500*time.Millisecond, pos, vel, target); got != clean.Neg() {
		t.Errorf("invert: %v vs %v", got, clean.Neg())
	}
	if got := faulty.Control(5500*time.Millisecond, pos, vel, target); got != geom.V(0, 5, 0) {
		t.Errorf("full-thrust: %v", got)
	}
	// Bias: use an unsaturated setpoint so the offset is visible.
	near := geom.V(1, 0, 0)
	cleanNear := inner.Control(0, pos, vel, near)
	if got := faulty.Control(7500*time.Millisecond, pos, vel, near); math.Abs(got.X-(cleanNear.X+0.5)) > 1e-9 {
		t.Errorf("bias: %v, clean %v", got, cleanNear)
	}
}

func TestFaultKindString(t *testing.T) {
	for k, want := range map[FaultKind]string{
		FaultStuckZero:  "stuck-zero",
		FaultInvertAxis: "invert-axis",
		FaultFullThrust: "full-thrust",
		FaultBias:       "bias",
		FaultKind(0):    "FaultKind(0)",
	} {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q", int(k), got)
		}
	}
}

func safeFixture(t *testing.T) (*Safe, *reach.Analyzer) {
	t.Helper()
	ws, err := geom.NewWorkspace(
		geom.Box(geom.V(0, 0, 0), geom.V(30, 30, 10)),
		[]geom.AABB{geom.Box(geom.V(12, 12, 0), geom.V(18, 18, 8))},
	)
	if err != nil {
		t.Fatal(err)
	}
	bounds := reach.Bounds{MaxAccel: 5, MaxVel: 3, BrakeDecel: 4}
	an, err := reach.NewAnalyzer(ws, bounds, 0.4, 100*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	return NewSafe(an, testLimits(), 20*time.Millisecond), an
}

func TestSafeBrakesWhenFast(t *testing.T) {
	sc, _ := safeFixture(t)
	u := sc.Control(0, geom.V(5, 5, 5), geom.V(3, 0, 0), geom.V(25, 5, 5))
	if u.X >= 0 {
		t.Errorf("fast state: control = %v, want braking (-X)", u)
	}
}

func TestSafeCreepsWhenSlowAndSafe(t *testing.T) {
	sc, _ := safeFixture(t)
	// At rest in open space, far from the obstacle: creep toward target.
	u := sc.Control(0, geom.V(5, 5, 5), geom.Vec3{}, geom.V(9, 5, 5))
	if u.X <= 0 {
		t.Errorf("slow safe state: control = %v, want progress (+X)", u)
	}
}

func TestSafeRefusesUnsafeCreep(t *testing.T) {
	sc, an := safeFixture(t)
	// Hovering just outside the margin band with the target inside the
	// obstacle: the controller must not creep in.
	pos := geom.V(11.2, 15, 3)
	if !an.Safe(pos, geom.Vec3{}) {
		t.Fatal("fixture state should be safe")
	}
	u := sc.Control(0, pos, geom.Vec3{}, geom.V(15, 15, 3))
	if u.X > 1e-9 {
		t.Errorf("control toward obstacle = %v, want no +X progress", u)
	}
}

// TestSafeP2aClosedLoop validates (P2a) directly: from many φsafe states,
// the SC closed loop never leaves φsafe.
func TestSafeP2aClosedLoop(t *testing.T) {
	sc, an := safeFixture(t)
	cert, err := reach.NewCertificate(reach.CertConfig{
		Analyzer: an,
		SCStep:   sc.ClosedLoopStep(),
		SCPeriod: 20 * time.Millisecond,
		Samples:  120,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.CheckP2a(); err != nil {
		t.Errorf("(P2a) failed for the shipped safe controller: %v", err)
	}
}

// TestSafeP2bClosedLoop validates (P2b): the SC settles into φsafer within
// the deadline from φsafe states.
func TestSafeP2bClosedLoop(t *testing.T) {
	sc, an := safeFixture(t)
	cert, err := reach.NewCertificate(reach.CertConfig{
		Analyzer:    an,
		SCStep:      sc.ClosedLoopStep(),
		SCPeriod:    20 * time.Millisecond,
		Samples:     60,
		Seed:        10,
		P2bDeadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.CheckP2b(); err != nil {
		t.Errorf("(P2b) failed for the shipped safe controller: %v", err)
	}
}

// TestSafeRecoversIntoSafer drives the SC from a compromised high-speed
// state toward the obstacle and checks it recovers into φsafer without
// collision — the Figure 6 recovery behaviour in isolation.
func TestSafeRecoversIntoSafer(t *testing.T) {
	sc, an := safeFixture(t)
	drone, err := plant.NewDrone(plant.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Charging at the obstacle from 2.5m with margin to spare.
	s := plant.State{Pos: geom.V(9.5, 15, 3), Vel: geom.V(2.5, 0, 0), Battery: 1}
	if !an.Safe(s.Pos, s.Vel) {
		t.Fatal("fixture state should start in φsafe")
	}
	reached := false
	for i := 0; i < 1500; i++ {
		u := sc.Control(0, s.Pos, s.Vel, geom.V(15, 15, 3))
		s = drone.Step(s, u, 20*time.Millisecond)
		if !an.Workspace().FreeWithMargin(s.Pos, 0) {
			t.Fatalf("collision at %v", s.Pos)
		}
		if an.InSafer(s.Pos, s.Vel) {
			reached = true
			break
		}
	}
	if !reached {
		t.Error("SC did not recover into φsafer within 30s")
	}
}

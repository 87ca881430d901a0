package reach

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geom"
)

func testBounds() Bounds {
	return Bounds{MaxAccel: 5, MaxVel: 3, BrakeDecel: 4}
}

func TestBoundsValidate(t *testing.T) {
	tests := []struct {
		name    string
		b       Bounds
		wantErr bool
	}{
		{"valid", testBounds(), false},
		{"zero accel", Bounds{MaxVel: 1, BrakeDecel: 1}, true},
		{"zero vel", Bounds{MaxAccel: 1, BrakeDecel: 1}, true},
		{"zero brake", Bounds{MaxAccel: 1, MaxVel: 1}, true},
		{"brake exceeds accel", Bounds{MaxAccel: 1, MaxVel: 1, BrakeDecel: 2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.b.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestReachBoxContainsStart(t *testing.T) {
	b := testBounds()
	pos, vel := geom.V(1, 2, 3), geom.V(1, -2, 0)
	box := reachBox(pos, vel, b, 100*time.Millisecond)
	if !box.Contains(pos) {
		t.Errorf("reach box %v does not contain the start %v", box, pos)
	}
	// Zero horizon: the box degenerates to the point.
	box0 := reachBox(pos, vel, b, 0)
	if !vecEq(box0.Min, pos) || !vecEq(box0.Max, pos) {
		t.Errorf("zero-horizon reach box = %v", box0)
	}
}

func TestReachBoxKnownValues(t *testing.T) {
	// From rest, reach in time t is ±(a t²/2) per axis (below the velocity
	// cap).
	b := testBounds()
	box := reachBox(geom.V(0, 0, 0), geom.Vec3{}, b, 200*time.Millisecond)
	want := 0.5 * 5 * 0.04 // 0.1 m
	if !floatEq(box.Max.X, want) || !floatEq(box.Min.X, -want) {
		t.Errorf("reach from rest = %v, want ±%v", box, want)
	}
	// Moving at the velocity cap: forward reach is exactly vmax·t.
	box = reachBox(geom.V(0, 0, 0), geom.V(3, 0, 0), b, time.Second)
	if !floatEq(box.Max.X, 3) {
		t.Errorf("capped forward reach = %v, want 3", box.Max.X)
	}
}

func TestBrakeBoxKnownValues(t *testing.T) {
	b := testBounds()
	// Braking from 2 m/s at 4 m/s²: excursion 0.5 m, none backwards.
	box := BrakeBox(geom.V(0, 0, 0), geom.V(2, 0, 0), b)
	if !floatEq(box.Max.X, 0.5) || !floatEq(box.Min.X, 0) {
		t.Errorf("brake box = %v", box)
	}
	// At rest the footprint is the point itself.
	box = BrakeBox(geom.V(1, 1, 1), geom.Vec3{}, b)
	if !vecEq(box.Min, geom.V(1, 1, 1)) || !vecEq(box.Max, geom.V(1, 1, 1)) {
		t.Errorf("brake box at rest = %v", box)
	}
}

// Property: BrakeBox ⊆ StopBox(t) ⊆ StopBox(t') for t ≤ t' (monotone), and
// reachBox(t) ⊆ StopBox(t).
func TestBoxNesting(t *testing.T) {
	b := testBounds()
	f := func(px, py, pz, vx, vy, vz float64, tRaw uint16) bool {
		pos := geom.V(math.Mod(px, 100), math.Mod(py, 100), math.Mod(pz, 100))
		vel := geom.V(math.Mod(vx, 3), math.Mod(vy, 3), math.Mod(vz, 3))
		t1 := time.Duration(tRaw) * time.Millisecond / 20
		t2 := 2 * t1
		brake := BrakeBox(pos, vel, b)
		stop1 := StopBox(pos, vel, b, t1)
		stop2 := StopBox(pos, vel, b, t2)
		reach1 := reachBox(pos, vel, b, t1)
		return stop1.ContainsBox(brake) && stop2.ContainsBox(stop1) && stop1.ContainsBox(reach1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property (soundness of StopBox): simulate any admissible bang-bang control
// for up to t followed by a full brake; every visited position must lie in
// StopBox(pos, vel, t). This is the (P3)-by-construction argument.
func TestStopBoxSoundnessProperty(t *testing.T) {
	b := testBounds()
	rng := rand.New(rand.NewSource(99))
	const horizon = 200 * time.Millisecond
	const dt = 5 * time.Millisecond
	for trial := 0; trial < 200; trial++ {
		pos := geom.V(rng.Float64()*20, rng.Float64()*20, rng.Float64()*20)
		vel := geom.V(
			(rng.Float64()*2-1)*b.MaxVel,
			(rng.Float64()*2-1)*b.MaxVel,
			(rng.Float64()*2-1)*b.MaxVel,
		)
		// A hair of slack absorbs the semi-implicit-Euler discretisation of
		// this test harness (the analytic box bounds the continuous flow).
		box := StopBox(pos, vel, b, horizon).Expand(0.01)
		p, v := pos, vel
		// Adversarial phase.
		steps := int(horizon / dt)
		adversarial := rng.Intn(steps + 1)
		for s := 0; s < adversarial; s++ {
			acc := geom.V(bangOf(rng, b.MaxAccel), bangOf(rng, b.MaxAccel), bangOf(rng, b.MaxAccel))
			p, v = integrate(p, v, acc, b, dt)
			if !box.Contains(p) {
				t.Fatalf("trial %d: adversarial position %v escaped StopBox %v", trial, p, box)
			}
		}
		// Braking phase at the guaranteed deceleration.
		for s := 0; s < 2000 && v.Norm() > 1e-3; s++ {
			acc := geom.V(brakeAxisCmd(v.X, b.BrakeDecel), brakeAxisCmd(v.Y, b.BrakeDecel), brakeAxisCmd(v.Z, b.BrakeDecel))
			p, v = integrate(p, v, acc, b, dt)
			if !box.Contains(p) {
				t.Fatalf("trial %d: braking position %v escaped StopBox %v", trial, p, box)
			}
		}
	}
}

func integrate(p, v, a geom.Vec3, b Bounds, dt time.Duration) (geom.Vec3, geom.Vec3) {
	h := dt.Seconds()
	vmax := geom.V(b.MaxVel, b.MaxVel, b.MaxVel)
	nv := v.Add(a.Scale(h)).ClampBox(vmax.Neg(), vmax)
	return p.Add(nv.Scale(h)), nv
}

func bangOf(rng *rand.Rand, amax float64) float64 {
	if rng.Intn(2) == 0 {
		return -amax
	}
	return amax
}

func brakeAxisCmd(v, d float64) float64 {
	a := -v / 0.005 // stop exactly within one step when admissible
	if a > d {
		return d
	}
	if a < -d {
		return -d
	}
	return a
}

func testAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	ws, err := geom.NewWorkspace(
		geom.Box(geom.V(0, 0, -1), geom.V(30, 30, 10)),
		[]geom.AABB{geom.Box(geom.V(12, 12, -1), geom.V(18, 18, 8))},
	)
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(ws, testBounds(), 0.4, 100*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestNewAnalyzerValidation(t *testing.T) {
	ws, err := geom.NewWorkspace(geom.Box(geom.V(0, 0, 0), geom.V(10, 10, 10)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAnalyzer(nil, testBounds(), 0.4, time.Second, 1); err == nil {
		t.Error("nil workspace accepted")
	}
	if _, err := NewAnalyzer(ws, Bounds{}, 0.4, time.Second, 1); err == nil {
		t.Error("invalid bounds accepted")
	}
	if _, err := NewAnalyzer(ws, testBounds(), -1, time.Second, 1); err == nil {
		t.Error("negative margin accepted")
	}
	if _, err := NewAnalyzer(ws, testBounds(), 0.4, 0, 1); err == nil {
		t.Error("zero delta accepted")
	}
	if _, err := NewAnalyzer(ws, testBounds(), 0.4, time.Second, 0.5); err == nil {
		t.Error("hysteresis < 1 accepted")
	}
}

func TestAnalyzerPredicates(t *testing.T) {
	an := testAnalyzer(t)
	// Far from the obstacle, at rest: safe, not escapable, in φsafer.
	pos := geom.V(5, 5, 3)
	if !an.Safe(pos, geom.Vec3{}) {
		t.Error("open-space rest state should be safe")
	}
	if an.TTF2Delta(pos, geom.Vec3{}) {
		t.Error("open-space rest state should not trip ttf")
	}
	if !an.InSafer(pos, geom.Vec3{}) {
		t.Error("open-space rest state should be in φsafer")
	}
	// Charging at the obstacle at full speed from 1 m away: unsafe (cannot
	// stop in time: braking from 3 m/s at 4 m/s² needs 1.125 m).
	charging := geom.V(10.5, 15, 3)
	if an.Safe(charging, geom.V(3, 0, 0)) {
		t.Error("state that cannot brake before the obstacle reported safe")
	}
	// The same position at rest is safe but trips ttf (the adversary can
	// reach the obstacle within 2Δ + braking).
	if !an.Safe(charging, geom.Vec3{}) {
		t.Error("rest state 1.1m from obstacle face should be safe")
	}
	if !an.TTF2Delta(geom.V(11.45, 15, 3), geom.Vec3{}) {
		t.Error("rest state hugging the margin should trip ttf")
	}
}

func TestAnalyzerClassifyRegions(t *testing.T) {
	an := testAnalyzer(t)
	tests := []struct {
		name string
		pos  geom.Vec3
		vel  geom.Vec3
		want Region
	}{
		{"deep free space", geom.V(5, 5, 3), geom.Vec3{}, RegionSaferCore},
		{"inside obstacle", geom.V(15, 15, 3), geom.Vec3{}, RegionUnsafe},
		{"unstoppable charge", geom.V(11.3, 15, 3), geom.V(3, 0, 0), RegionUnsafe},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := an.Classify(tt.pos, tt.vel); got != tt.want {
				t.Errorf("Classify = %v, want %v", got, tt.want)
			}
		})
	}
}

// Property: the region predicates are properly nested: φsafer ⊆ ¬ttf region
// ⊆ φsafe (on sampled states).
func TestRegionNestingProperty(t *testing.T) {
	an := testAnalyzer(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		pos := geom.V(rng.Float64()*30, rng.Float64()*30, rng.Float64()*11-1)
		vel := geom.V(
			(rng.Float64()*2-1)*3,
			(rng.Float64()*2-1)*3,
			(rng.Float64()*2-1)*3,
		)
		safer := an.InSafer(pos, vel)
		ttf := an.TTF2Delta(pos, vel)
		safe := an.Safe(pos, vel)
		if safer && ttf {
			t.Fatalf("state %v %v in φsafer but trips ttf", pos, vel)
		}
		if !ttf && !safe {
			t.Fatalf("state %v %v not safe but ttf clear", pos, vel)
		}
		if safer && !safe {
			t.Fatalf("state %v %v in φsafer but not safe", pos, vel)
		}
	}
}

func TestSaferHorizon(t *testing.T) {
	an := testAnalyzer(t)
	if got := an.SaferHorizon(); got != 400*time.Millisecond {
		t.Errorf("SaferHorizon = %v, want 400ms (hysteresis 2 × 2Δ)", got)
	}
}

func TestRegionString(t *testing.T) {
	for r, want := range map[Region]string{
		RegionUnsafe:    "R1-unsafe",
		RegionSafe:      "R2-escapable",
		RegionRecover:   "R3R4-recoverable",
		RegionSaferCore: "R5-safer",
		Region(0):       "Region(0)",
	} {
		if got := r.String(); got != want {
			t.Errorf("String(%d) = %q", int(r), got)
		}
	}
}

func vecEq(a, b geom.Vec3) bool { return a == b }

func floatEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

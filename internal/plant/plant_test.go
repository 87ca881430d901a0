package plant

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geom"
)

func noLagParams() Params {
	p := DefaultParams()
	p.LagTau = 0
	return p
}

func mustDrone(t *testing.T, p Params, seed int64) *Drone {
	t.Helper()
	d, err := NewDrone(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Params)
		wantErr bool
	}{
		{"default ok", func(*Params) {}, false},
		{"zero accel", func(p *Params) { p.MaxAccel = 0 }, true},
		{"zero vel", func(p *Params) { p.MaxVel = 0 }, true},
		{"negative lag", func(p *Params) { p.LagTau = -1 }, true},
		{"negative noise", func(p *Params) { p.SensorNoise = -1 }, true},
		{"negative drain", func(p *Params) { p.IdleDrainPerSec = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestStepIntegratesSimpleMotion(t *testing.T) {
	d := mustDrone(t, noLagParams(), 1)
	s := State{Battery: 1}
	// Constant 1 m/s² for 1 s in 10ms steps: v ≈ 1, x ≈ 0.5 (semi-implicit
	// Euler is slightly above the exact 0.5).
	for i := 0; i < 100; i++ {
		s = d.Step(s, geom.V(1, 0, 0), 10*time.Millisecond)
	}
	if math.Abs(s.Vel.X-1) > 1e-9 {
		t.Errorf("v = %v, want 1", s.Vel.X)
	}
	if s.Pos.X < 0.5 || s.Pos.X > 0.51 {
		t.Errorf("x = %v, want ≈0.5", s.Pos.X)
	}
}

func TestStepSaturatesCommandAndVelocity(t *testing.T) {
	p := noLagParams()
	d := mustDrone(t, p, 1)
	s := State{Battery: 1}
	for i := 0; i < 1000; i++ {
		s = d.Step(s, geom.V(1000, -1000, 0), 10*time.Millisecond)
	}
	if s.Vel.X != p.MaxVel || s.Vel.Y != -p.MaxVel {
		t.Errorf("velocity not clamped: %v", s.Vel)
	}
	if math.Abs(s.Accel.X) > p.MaxAccel || math.Abs(s.Accel.Y) > p.MaxAccel {
		t.Errorf("acceleration not clamped: %v", s.Accel)
	}
}

func TestActuationLag(t *testing.T) {
	p := DefaultParams()
	p.LagTau = 100 * time.Millisecond
	d := mustDrone(t, p, 1)
	s := State{Battery: 1}
	s = d.Step(s, geom.V(p.MaxAccel, 0, 0), 10*time.Millisecond)
	// After one 10ms step with τ=100ms, the applied acceleration is roughly
	// (1 - e^-0.1) ≈ 9.5% of the command.
	frac := s.Accel.X / p.MaxAccel
	if frac < 0.05 || frac > 0.15 {
		t.Errorf("lagged accel fraction = %v, want ≈0.095", frac)
	}
	// It converges toward the command.
	for i := 0; i < 100; i++ {
		s = d.Step(s, geom.V(p.MaxAccel, 0, 0), 10*time.Millisecond)
	}
	if s.Accel.X < 0.99*p.MaxAccel {
		t.Errorf("lagged accel did not converge: %v", s.Accel.X)
	}
}

func TestBatteryDischarge(t *testing.T) {
	p := noLagParams()
	d := mustDrone(t, p, 1)
	s := State{Battery: 1}
	s2 := d.Step(s, geom.Vec3{}, time.Second)
	wantIdle := 1 - p.IdleDrainPerSec
	if math.Abs(s2.Battery-wantIdle) > 1e-9 {
		t.Errorf("idle battery = %v, want %v", s2.Battery, wantIdle)
	}
	// Discharge depends on the APPLIED control of the previous state.
	s.Accel = geom.V(p.MaxAccel, 0, 0)
	s3 := d.Step(s, geom.Vec3{}, time.Second)
	if s3.Battery >= s2.Battery {
		t.Error("maneuvering must discharge faster than idling")
	}
	// Battery never goes negative.
	s.Battery = 1e-9
	s4 := d.Step(s, geom.V(1, 1, 1), time.Hour)
	if s4.Battery != 0 {
		t.Errorf("battery = %v, want 0", s4.Battery)
	}
}

func TestCostFunctions(t *testing.T) {
	p := DefaultParams()
	if got, want := p.Cost(geom.Vec3{}, time.Second), p.IdleDrainPerSec; math.Abs(got-want) > 1e-12 {
		t.Errorf("idle cost = %v, want %v", got, want)
	}
	// cost* dominates any admissible control's cost.
	worst := p.MaxCost(2 * time.Second)
	for _, u := range []geom.Vec3{
		{}, {X: p.MaxAccel}, {X: p.MaxAccel, Y: p.MaxAccel}, {X: -p.MaxAccel, Z: p.MaxAccel},
	} {
		if c := p.Cost(u, 2*time.Second); c > worst {
			t.Errorf("cost(%v) = %v exceeds cost* = %v", u, c, worst)
		}
	}
}

func TestLandedDroneStaysPut(t *testing.T) {
	d := mustDrone(t, noLagParams(), 1)
	s := Land(State{Pos: geom.V(1, 2, 0.3), Vel: geom.V(1, 1, 1), Battery: 0.5})
	if !s.Landed || s.Vel != geom.Zero {
		t.Errorf("Land = %+v", s)
	}
	s2 := d.Step(s, geom.V(5, 5, 5), time.Second)
	if s2.Pos != s.Pos || s2.Vel != geom.Zero {
		t.Errorf("landed drone moved: %+v", s2)
	}
	if s2.Battery >= s.Battery {
		t.Error("landed drone should still idle-drain")
	}
}

func TestObserveNoise(t *testing.T) {
	p := noLagParams()
	d := mustDrone(t, p, 1)
	s := State{Pos: geom.V(10, 10, 5), Battery: 1}
	if got := d.Observe(s); got != s {
		t.Error("zero-noise observation should be exact")
	}
	p.SensorNoise = 0.5
	d2 := mustDrone(t, p, 1)
	diff := false
	for i := 0; i < 10; i++ {
		if d2.Observe(s).Pos != s.Pos {
			diff = true
		}
	}
	if !diff {
		t.Error("noisy observation never differed from the true state")
	}
}

func TestCrashed(t *testing.T) {
	ws, err := geom.NewWorkspace(
		geom.Box(geom.V(0, 0, 0), geom.V(10, 10, 10)),
		[]geom.AABB{geom.Box(geom.V(4, 4, 0), geom.V(6, 6, 5))},
	)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		s    State
		want bool
	}{
		{"flying free", State{Pos: geom.V(1, 1, 1), Battery: 0.5}, false},
		{"inside obstacle", State{Pos: geom.V(5, 5, 1), Battery: 0.5}, true},
		{"out of bounds", State{Pos: geom.V(-1, 1, 1), Battery: 0.5}, true},
		{"battery dead airborne", State{Pos: geom.V(1, 1, 1), Battery: 0}, true},
		{"landed is never crashed", State{Pos: geom.V(5, 5, 1), Landed: true}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Crashed(tt.s, ws); got != tt.want {
				t.Errorf("Crashed = %v, want %v", got, tt.want)
			}
		})
	}
}

// Property: the plant respects the advertised worst-case bounds — after any
// step, |v| ≤ MaxVel and |a| ≤ MaxAccel per axis. This is the assumption the
// DM's reachability analysis is sound against (Remark 3.2).
func TestPlantRespectsBoundsProperty(t *testing.T) {
	p := DefaultParams()
	d := mustDrone(t, p, 3)
	f := func(vx, vy, vz, cx, cy, cz float64, dtRaw uint8) bool {
		s := State{
			Vel:     geom.V(math.Mod(vx, 10), math.Mod(vy, 10), math.Mod(vz, 10)),
			Battery: 1,
		}
		dt := time.Duration(1+int(dtRaw)) * time.Millisecond
		// Even from an out-of-bounds velocity (sensor glitch), one step
		// restores the clamps.
		next := d.Step(s, geom.V(cx, cy, cz), dt)
		a, v := next.Accel.Abs(), next.Vel.Abs()
		return a.X <= p.MaxAccel+1e-9 && a.Y <= p.MaxAccel+1e-9 && a.Z <= p.MaxAccel+1e-9 &&
			v.X <= p.MaxVel+1e-9 && v.Y <= p.MaxVel+1e-9 && v.Z <= p.MaxVel+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: two drones with the same seed and inputs evolve identically
// (replayability, required by the systematic-testing engine).
func TestPlantDeterminism(t *testing.T) {
	p := DefaultParams()
	p.SensorNoise = 0.2
	d1 := mustDrone(t, p, 42)
	d2 := mustDrone(t, p, 42)
	s1 := State{Battery: 1}
	s2 := State{Battery: 1}
	for i := 0; i < 200; i++ {
		cmd := geom.V(float64(i%7)-3, float64(i%5)-2, float64(i%3)-1)
		s1 = d1.Step(s1, cmd, 10*time.Millisecond)
		s2 = d2.Step(s2, cmd, 10*time.Millisecond)
		if s1 != s2 {
			t.Fatalf("divergence at step %d: %+v vs %+v", i, s1, s2)
		}
		if o1, o2 := d1.Observe(s1), d2.Observe(s2); o1 != o2 {
			t.Fatalf("observation divergence at step %d", i)
		}
	}
}

func TestStepZeroDuration(t *testing.T) {
	d := mustDrone(t, DefaultParams(), 1)
	s := State{Pos: geom.V(1, 1, 1), Vel: geom.V(1, 0, 0), Battery: 0.8}
	if got := d.Step(s, geom.V(1, 1, 1), 0); got != s {
		t.Errorf("zero-dt step changed state: %+v", got)
	}
}

// TestLagCoefficientCache steps one drone through sub-steps of varying
// length — full 5 ms steps, a run's last partial sub-step, and back — and
// holds every state bit for bit to a step of a drone that has never stepped,
// so computes 1 - exp(-h/τ) afresh.
func TestLagCoefficientCache(t *testing.T) {
	p := DefaultParams()
	d := mustDrone(t, p, 1)
	s := State{Pos: geom.V(1, 2, 3), Battery: 1}
	steps := []time.Duration{
		5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond,
		3 * time.Millisecond, // the last, partial sub-step of a run
		5 * time.Millisecond, time.Nanosecond, 5 * time.Millisecond,
		7 * time.Millisecond, 7 * time.Millisecond, 2 * time.Millisecond,
	}
	for i, dt := range steps {
		cmd := geom.V(float64(i%3)-1, 2-float64(i%5), 0.5*float64(i))
		got := d.Step(s, cmd, dt)
		want := mustDrone(t, p, 1).Step(s, cmd, dt)
		if !sameBits(got, want) {
			t.Fatalf("step %d (dt %v): cached %+v, uncached %+v", i, dt, got, want)
		}
		s = got
	}
}

// sameBits reports whether two states are equal bit for bit.
func sameBits(a, b State) bool {
	fa := []float64{a.Pos.X, a.Pos.Y, a.Pos.Z, a.Vel.X, a.Vel.Y, a.Vel.Z, a.Accel.X, a.Accel.Y, a.Accel.Z, a.Battery}
	fb := []float64{b.Pos.X, b.Pos.Y, b.Pos.Z, b.Vel.X, b.Vel.Y, b.Vel.Z, b.Accel.X, b.Accel.Y, b.Accel.Z, b.Battery}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Landed == b.Landed
}

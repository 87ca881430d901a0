// Package plant implements the physical substrate of the case study: a
// discrete-time quadrotor model standing in for the paper's Gazebo/PX4
// simulation and 3DR Iris hardware. The model is a 3D double integrator with
// per-axis acceleration and velocity bounds, first-order actuation lag,
// optional sensor noise, and a battery discharge model matching Section V-B
// (discharge is a function of the applied control).
//
// The substitution is behaviour-preserving for the RTA argument: the
// decision module only relies on worst-case bounds of the plant dynamics
// (|a| ≤ MaxAccel, |v| ≤ MaxVel per axis), which this model satisfies by
// construction, so the reachability computations in internal/reach are sound
// for it exactly as FaSTrack's tracking-error bound is sound for the drone.
package plant

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geom"
)

// State is the full plant state: kinematics, the currently applied (lagged)
// acceleration, and the battery charge fraction.
type State struct {
	Pos     geom.Vec3
	Vel     geom.Vec3
	Accel   geom.Vec3 // applied acceleration after actuation lag
	Battery float64   // charge fraction in [0, 1]
	Landed  bool
}

// Params are the physical parameters of the drone model.
type Params struct {
	// MaxAccel is the per-axis acceleration bound (m/s²). Commands are
	// saturated component-wise to ±MaxAccel.
	MaxAccel float64
	// MaxVel is the per-axis velocity bound (m/s).
	MaxVel float64
	// LagTau is the first-order actuation lag time constant; zero means
	// commands apply instantaneously.
	LagTau time.Duration
	// SensorNoise is the standard deviation (metres) of the position noise
	// added by Observe. Zero disables noise.
	SensorNoise float64
	// IdleDrainPerSec is the battery fraction consumed per second while
	// powered, independent of control effort.
	IdleDrainPerSec float64
	// AccelDrainPerSec is the extra battery fraction consumed per second per
	// m/s² of commanded acceleration magnitude.
	AccelDrainPerSec float64
	// GroundZ is the altitude at or below which the drone can land.
	GroundZ float64
}

// DefaultParams returns parameters loosely calibrated to a 3DR Iris class
// quadrotor flying the 50 m city workspace.
func DefaultParams() Params {
	return Params{
		MaxAccel:         5.0,
		MaxVel:           3.0,
		LagTau:           60 * time.Millisecond,
		SensorNoise:      0,
		IdleDrainPerSec:  0.00030,
		AccelDrainPerSec: 0.00012,
		GroundZ:          0.5,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.MaxAccel <= 0 || p.MaxVel <= 0 {
		return fmt.Errorf("MaxAccel (%v) and MaxVel (%v) must be positive", p.MaxAccel, p.MaxVel)
	}
	if p.LagTau < 0 {
		return fmt.Errorf("LagTau %v must be non-negative", p.LagTau)
	}
	if p.SensorNoise < 0 {
		return fmt.Errorf("SensorNoise %v must be non-negative", p.SensorNoise)
	}
	if p.IdleDrainPerSec < 0 || p.AccelDrainPerSec < 0 {
		return fmt.Errorf("battery drain rates must be non-negative")
	}
	return nil
}

// Cost returns the battery fraction consumed by applying control u for
// duration t — the cost(u, t) function of Section V-B.
func (p Params) Cost(u geom.Vec3, t time.Duration) float64 {
	sec := t.Seconds()
	return (p.IdleDrainPerSec + p.AccelDrainPerSec*u.Norm()) * sec
}

// MaxCost returns cost* = max_u cost(u, t): the maximum battery discharge
// over duration t across all admissible controls.
func (p Params) MaxCost(t time.Duration) float64 {
	worst := geom.V(p.MaxAccel, p.MaxAccel, p.MaxAccel)
	return p.Cost(worst, t)
}

// Drone is the stepping plant. It owns an RNG for sensor noise so runs are
// reproducible from a seed; that RNG and Step's coefficient cache make a
// Drone serve one run at a time.
type Drone struct {
	params Params
	rng    *rand.Rand
	// lagH and lagAlpha cache the actuation-lag coefficient 1 - exp(-h/τ)
	// of the last sub-step length h: a run's sub-steps share one length
	// but the last, partial one.
	lagH, lagAlpha float64
}

// NewDrone creates a plant with the given parameters and noise seed.
func NewDrone(p Params, seed int64) (*Drone, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("plant params: %w", err)
	}
	return &Drone{params: p, rng: rand.New(rand.NewSource(seed))}, nil
}

// Params returns the plant parameters.
func (d *Drone) Params() Params { return d.params }

// Step integrates the dynamics over dt under the commanded acceleration.
// The command is saturated per axis, passed through the actuation lag,
// velocity is clamped per axis, and the battery discharges according to the
// applied control. A landed drone does not move and only idles its battery.
func (d *Drone) Step(s State, cmd geom.Vec3, dt time.Duration) State {
	h := dt.Seconds()
	if h <= 0 {
		return s
	}
	next := s
	next.Battery = math.Max(0, s.Battery-d.params.Cost(s.Accel, dt))
	if s.Landed || next.Battery == 0 && s.Battery == 0 {
		next.Vel = geom.Zero
		next.Accel = geom.Zero
		return next
	}

	sat := geom.V(d.params.MaxAccel, d.params.MaxAccel, d.params.MaxAccel)
	cmd = cmd.ClampBox(sat.Neg(), sat)

	// First-order actuation lag: a' = a + (cmd - a) * (1 - exp(-h/τ)).
	applied := cmd
	if d.params.LagTau > 0 {
		if h != d.lagH {
			d.lagH, d.lagAlpha = h, 1-math.Exp(-h/d.params.LagTau.Seconds())
		}
		applied = s.Accel.Add(cmd.Sub(s.Accel).Scale(d.lagAlpha))
	}
	applied = applied.ClampBox(sat.Neg(), sat)

	vmax := geom.V(d.params.MaxVel, d.params.MaxVel, d.params.MaxVel)
	vel := s.Vel.Add(applied.Scale(h)).ClampBox(vmax.Neg(), vmax)
	// Semi-implicit Euler: integrate position with the updated velocity.
	pos := s.Pos.Add(vel.Scale(h))

	next.Pos = pos
	next.Vel = vel
	next.Accel = applied
	return next
}

// Observe returns the sensed state: the true state with Gaussian position
// noise (the paper treats state estimators as trusted, "accurately provide
// the system state within bounds" — the bound here is a few σ).
func (d *Drone) Observe(s State) State {
	if d.params.SensorNoise == 0 {
		return s
	}
	obs := s
	obs.Pos = s.Pos.Add(geom.V(
		d.rng.NormFloat64()*d.params.SensorNoise,
		d.rng.NormFloat64()*d.params.SensorNoise,
		d.rng.NormFloat64()*d.params.SensorNoise,
	))
	return obs
}

// Land marks the drone as landed, zeroing its motion.
func Land(s State) State {
	s.Landed = true
	s.Vel = geom.Zero
	s.Accel = geom.Zero
	return s
}

// Crashed reports whether the state constitutes a crash in the workspace:
// the drone is airborne and inside an obstacle or out of bounds, or it ran
// out of battery while airborne (the φbat failure).
func Crashed(s State, ws *geom.Workspace) bool {
	if s.Landed {
		return false
	}
	if !ws.Free(s.Pos) {
		return true
	}
	return s.Battery <= 0
}

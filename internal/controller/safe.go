package controller

import (
	"time"

	"repro/internal/geom"
	"repro/internal/reach"
)

// Safe is the certified safe controller Nsc: a brake-then-creep law standing
// in for a FaSTrack-synthesised controller. Its certificate argument is the
// control-barrier structure of φsafe = { s | BrakeBox(s) free }:
//
//  1. Braking at the guaranteed deceleration keeps the remaining stopping
//     footprint inside the current one, so φsafe is invariant while braking
//     (property P2a while fast).
//  2. Once slow, it creeps toward the target at a capped speed, and only
//     issues a command when the worst-case stopping footprint after one
//     control period remains collision-free; otherwise it brakes. φsafe is
//     therefore invariant in every branch (P2a), and progress toward the
//     (free-space) target at bounded speed eventually places the drone where
//     the hysteresis-horizon stop box is free, establishing liveness into
//     φsafer (P2b) — validated by the sampling certificate in
//     internal/reach.
type Safe struct {
	analyzer *reach.Analyzer
	limits   Limits
	period   time.Duration
	// creepVel is the cruise speed while recovering; low enough that the
	// stopping footprint stays tight.
	creepVel float64
	// slowThresh separates the braking phase from the creeping phase.
	slowThresh float64
}

var _ Controller = (*Safe)(nil)

// NewSafe builds the safe controller for the given analyzer (which fixes the
// workspace, margins and the guaranteed braking deceleration) and control
// period.
func NewSafe(a *reach.Analyzer, l Limits, period time.Duration) *Safe {
	creep := 0.35 * l.MaxVel
	return &Safe{
		analyzer:   a,
		limits:     l,
		period:     period,
		creepVel:   creep,
		slowThresh: creep * 1.2,
	}
}

// Control implements Controller.
func (c *Safe) Control(_ time.Duration, pos, vel, target geom.Vec3) geom.Vec3 {
	if vel.Norm() > c.slowThresh {
		return c.brakeCommand(vel)
	}
	// Creep phase: command a capped velocity, realised by a damped
	// acceleration, but only if the resulting worst-case state keeps a
	// collision-free stopping footprint; otherwise keep braking. While the
	// state is not yet in φsafer, the creep direction is the clearance
	// gradient (retreat from obstacles) rather than the mission target —
	// this is how the SC "moves the system to a state in φsafer" (P2b).
	var desired geom.Vec3
	if !c.analyzer.InSafer(pos, vel) {
		influence := 4 * c.analyzer.Margin()
		if influence < 2 {
			influence = 2
		}
		retreat := c.analyzer.Workspace().RetreatDirection(pos, influence)
		desired = retreat.Scale(c.creepVel)
	} else {
		desired = target.Sub(pos).ClampNorm(c.creepVel)
	}
	u := desired.Sub(vel).Scale(1.0 / c.period.Seconds())
	u = c.limits.clampAccel(u).ClampNorm(c.limits.MaxAccel)
	if c.safeAfter(pos, vel, u) || c.improving(pos, vel, u) {
		return u
	}
	return c.brakeCommand(vel)
}

// improving is the escape clause for states already inside the margin band
// (a late switch under worst-case faults can consume the safety margin —
// physically clear of the obstacle, but with the stopping footprint no
// longer margin-free). There the safeAfter guard would reject every command
// and freeze the drone; instead, a slow command that strictly increases
// clearance is allowed, so the SC backs out of the band and recovery
// resumes. It never fires while the margin-inflated stopping footprint is
// intact, so it does not weaken (P2a) in the interior of φsafe.
func (c *Safe) improving(pos, vel, u geom.Vec3) bool {
	cur := reach.StopBox(pos, vel, c.analyzer.Bounds(), c.period)
	if c.analyzer.Workspace().BoxFree(cur, c.analyzer.Margin()) {
		return false
	}
	np, nv := c.integrate(pos, vel, u)
	if nv.Norm() > 1.5*c.creepVel {
		return false
	}
	ws := c.analyzer.Workspace()
	return ws.Clearance(np) > ws.Clearance(pos)+1e-9
}

// brakeCommand decelerates each axis toward zero velocity at the guaranteed
// braking deceleration, without overshooting through zero within one period.
func (c *Safe) brakeCommand(vel geom.Vec3) geom.Vec3 {
	d := c.analyzer.Bounds().BrakeDecel
	h := c.period.Seconds()
	brakeAxis := func(v float64) float64 {
		a := -v / h // exact stop within one period if admissible
		if a > d {
			a = d
		}
		if a < -d {
			a = -d
		}
		return a
	}
	return geom.V(brakeAxis(vel.X), brakeAxis(vel.Y), brakeAxis(vel.Z))
}

// safeAfter conservatively predicts the state one period ahead under command
// u and checks that its stopping footprint (inflated to a worst-case stop
// box over the period) stays collision-free.
func (c *Safe) safeAfter(pos, vel, u geom.Vec3) bool {
	h := c.period.Seconds()
	b := c.analyzer.Bounds()
	vmax := geom.V(b.MaxVel, b.MaxVel, b.MaxVel)
	nextVel := vel.Add(u.Scale(h)).ClampBox(vmax.Neg(), vmax)
	nextPos := pos.Add(vel.Scale(h)).Add(u.Scale(0.5 * h * h))
	// One period of slack for actuation lag and discretisation: require the
	// stop box over an extra period to be free, not just the brake box.
	box := reach.StopBox(nextPos, nextVel, b, c.period)
	return c.analyzer.Workspace().BoxFree(box, c.analyzer.Margin())
}

// ClosedLoopStep returns a reach.SCStepFunc that advances an ideal
// double-integrator plant (no lag, exact saturation) one period under this
// controller — the closed-loop map used by the sampling certificate. The
// guaranteed braking deceleration of the analyzer accounts for the gap
// between this ideal model and the lagged plant.
func (c *Safe) ClosedLoopStep() reach.SCStepFunc {
	return func(pos, vel geom.Vec3) (geom.Vec3, geom.Vec3) {
		u := c.Control(0, pos, vel, pos) // hold position: pure recovery
		return c.integrate(pos, vel, u)
	}
}

func (c *Safe) integrate(pos, vel, u geom.Vec3) (geom.Vec3, geom.Vec3) {
	h := c.period.Seconds()
	b := c.analyzer.Bounds()
	vmax := geom.V(b.MaxVel, b.MaxVel, b.MaxVel)
	nv := vel.Add(u.Scale(h)).ClampBox(vmax.Neg(), vmax)
	np := pos.Add(nv.Scale(h))
	return np, nv
}

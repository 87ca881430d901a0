// Package controller implements the three controller families of the case
// study (Section II-C, V-A):
//
//   - Aggressive: a stand-in for the PX4 autopilot's time-optimised motion
//     primitives — a high-gain, underdamped tracking law that is fast but
//     overshoots during high-speed maneuvers (Figure 5, right);
//   - Learned: a stand-in for a data-driven / RL-trained primitive — a
//     gain-scheduled policy whose table contains corrupted regions, so it
//     usually tracks well but occasionally deviates dangerously (Figure 5,
//     left);
//   - Safe: the certified safe controller Nsc — a brake-then-creep law that
//     provably preserves φsafe (the braking-footprint invariant computed by
//     internal/reach), standing in for a FaSTrack-synthesised controller.
//
// A fault-injection wrapper perturbs any controller's output over chosen
// time windows, reproducing the paper's "bugs introduced using fault
// injection in the advanced controller".
package controller

import (
	"time"

	"repro/internal/geom"
)

// Controller maps the observed kinematic state and the current target
// waypoint to a commanded acceleration. Implementations must be
// deterministic given their construction-time seed; t is the current system
// time (used by time-dependent faults and scheduled policies).
type Controller interface {
	Control(t time.Duration, pos, vel, target geom.Vec3) geom.Vec3
}

// Limits are the actuation limits a controller saturates to.
type Limits struct {
	MaxAccel float64
	MaxVel   float64
}

func (l Limits) clampAccel(a geom.Vec3) geom.Vec3 {
	m := geom.V(l.MaxAccel, l.MaxAccel, l.MaxAccel)
	return a.ClampBox(m.Neg(), m)
}

// PD is a generic proportional-derivative tracking law
// u = Kp (target − pos) − Kd vel, saturated per axis.
type PD struct {
	Kp, Kd float64
	Limits Limits
}

var _ Controller = (*PD)(nil)

// Control implements Controller.
func (c *PD) Control(_ time.Duration, pos, vel, target geom.Vec3) geom.Vec3 {
	u := target.Sub(pos).Scale(c.Kp).Sub(vel.Scale(c.Kd))
	return c.Limits.clampAccel(u)
}

// NewAggressive builds the untrusted advanced controller standing in for the
// third-party PX4 primitives: high proportional gain with weak damping
// (underdamped), so the drone accelerates hard toward the waypoint and
// overshoots during high-speed maneuvers — exactly the failure mode of
// Figure 5 (right).
func NewAggressive(l Limits) *PD {
	return &PD{Kp: 3.2, Kd: 1.1, Limits: l}
}

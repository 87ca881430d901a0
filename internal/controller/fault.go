package controller

import (
	"fmt"
	"time"

	"repro/internal/geom"
)

// FaultKind enumerates the injectable controller faults.
type FaultKind int

// Fault kinds. Each models a realistic bug class in an untrusted controller.
const (
	// FaultStuckZero: the controller output freezes at zero (crashed
	// process / watchdog reset) — the drone coasts.
	FaultStuckZero FaultKind = iota + 1
	// FaultInvertAxis: the sign of every axis is flipped (frame-convention
	// bug) — the controller actively destabilises the plant.
	FaultInvertAxis
	// FaultFullThrust: the output saturates at full acceleration along a
	// fixed direction (runaway integrator).
	FaultFullThrust
	// FaultBias: a constant bias is added to the output (mis-calibration).
	FaultBias
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultStuckZero:
		return "stuck-zero"
	case FaultInvertAxis:
		return "invert-axis"
	case FaultFullThrust:
		return "full-thrust"
	case FaultBias:
		return "bias"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one fault-injection window: between Start and End the wrapped
// controller's output is perturbed according to Kind.
type Fault struct {
	Kind  FaultKind
	Start time.Duration
	End   time.Duration
	// Param is the fault payload: the thrust direction for FaultFullThrust,
	// the bias vector for FaultBias; ignored otherwise.
	Param geom.Vec3
}

// Active reports whether the fault is active at time t.
func (f Fault) Active(t time.Duration) bool {
	return t >= f.Start && t < f.End
}

// Faulty wraps an inner controller with fault-injection windows.
type Faulty struct {
	inner  Controller
	limits Limits
	faults []Fault
}

var _ Controller = (*Faulty)(nil)

// WithFaults wraps ctrl so that the listed faults perturb its output during
// their windows. The fault slice is copied.
func WithFaults(ctrl Controller, l Limits, faults []Fault) *Faulty {
	fs := make([]Fault, len(faults))
	copy(fs, faults)
	return &Faulty{inner: ctrl, limits: l, faults: fs}
}

// Control implements Controller.
func (c *Faulty) Control(t time.Duration, pos, vel, target geom.Vec3) geom.Vec3 {
	u := c.inner.Control(t, pos, vel, target)
	for _, f := range c.faults {
		if !f.Active(t) {
			continue
		}
		switch f.Kind {
		case FaultStuckZero:
			u = geom.Zero
		case FaultInvertAxis:
			u = u.Neg()
		case FaultFullThrust:
			u = f.Param.Unit().Scale(c.limits.MaxAccel)
		case FaultBias:
			u = u.Add(f.Param)
		}
	}
	return c.limits.clampAccel(u)
}

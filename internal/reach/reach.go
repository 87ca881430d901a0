// Package reach implements the reachability computations SOTER's decision
// modules rely on (Section III-C, "From theory to practice"). The paper uses
// FaSTrack and the Level-Set Toolbox offline; here the plant is a 3D double
// integrator with per-axis bounds, for which worst-case reachable sets have
// closed forms, so the same checks are computed analytically:
//
//   - reachBox(s, t): the positions reachable within [0, t] under ANY
//     admissible control (the Reach(s, *, t) of the paper, projected to
//     position).
//   - BrakeBox(s): the positions swept while braking to a stop at full
//     deceleration — the "stopping footprint".
//   - StopBox(s, t): positions reachable by evolving arbitrarily for up to
//     t and then braking; this over-approximates every future position of
//     any run that starts braking within t.
//
// With φsafe := { s | BrakeBox(s) free } (a control-invariant under the
// braking safe controller) and φsafer := { s | StopBox(s, h) free } for a
// horizon h ≥ 2Δ, properties (P2a) and (P3) hold by construction; the
// TTF2Delta check of Figure 9 is ¬(StopBox(s, 2Δ) free). The package also
// provides a grid-based backward-reachability computation mirroring the
// Level-Set Toolbox workflow of Figure 12b, used for cross-validation.
package reach

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
)

// Bounds are the worst-case per-axis dynamic bounds the decision module
// assumes of the plant: |a| ≤ MaxAccel and |v| ≤ MaxVel on every axis. Our
// formalism makes no assumption about the AC's code, only that its output
// actions respect these bounds (Remark 3.2).
type Bounds struct {
	// MaxAccel bounds any controller's per-axis acceleration (the adversary
	// in Reach(s, *, t)).
	MaxAccel float64
	// MaxVel bounds the per-axis velocity.
	MaxVel float64
	// BrakeDecel is the per-axis deceleration the safe controller is
	// guaranteed to achieve while braking, net of actuation lag; it must be
	// positive and at most MaxAccel. Stopping footprints are computed with
	// BrakeDecel while adversarial reach uses MaxAccel, keeping both sound.
	BrakeDecel float64
}

// Validate checks the bounds are usable.
func (b Bounds) Validate() error {
	if b.MaxAccel <= 0 || b.MaxVel <= 0 {
		return fmt.Errorf("MaxAccel (%v) and MaxVel (%v) must be positive", b.MaxAccel, b.MaxVel)
	}
	if b.BrakeDecel <= 0 || b.BrakeDecel > b.MaxAccel {
		return fmt.Errorf("BrakeDecel (%v) must be in (0, MaxAccel=%v]", b.BrakeDecel, b.MaxAccel)
	}
	return nil
}

// Interval is a closed 1D interval.
type Interval struct {
	Lo, Hi float64
}

// axisReach returns the interval of positions reachable on one axis within
// time t from position p and velocity v, under |a| ≤ amax and |v| ≤ vmax.
// The extremes are achieved by bang controls (+amax or -amax throughout).
func axisReach(p, v, amax, vmax, t float64) Interval {
	return Interval{
		Lo: p - maxDisplacement(-v, amax, vmax, t),
		Hi: p + maxDisplacement(v, amax, vmax, t),
	}
}

// maxDisplacement returns the maximum forward displacement achievable at any
// time within [0, t], starting with (signed) velocity v and accelerating at
// +amax with velocity capped at +vmax. v may be negative (moving backward
// initially); since displacement under constant forward acceleration first
// decreases then increases, the maximum over the window is never below zero
// (the start position itself).
func maxDisplacement(v, amax, vmax, t float64) float64 {
	if t <= 0 {
		return 0
	}
	v = math.Min(v, vmax)
	// Time to reach the velocity cap.
	t1 := (vmax - v) / amax
	var d float64
	if t <= t1 {
		d = v*t + 0.5*amax*t*t
	} else {
		d = v*t1 + 0.5*amax*t1*t1 + vmax*(t-t1)
	}
	return math.Max(0, d)
}

// brakeExcursion returns the forward excursion while braking the (signed)
// velocity v to zero at amax: v²/(2·amax) when moving forward, 0 otherwise.
func brakeExcursion(v, amax float64) float64 {
	if v <= 0 {
		return 0
	}
	return v * v / (2 * amax)
}

// reachBox returns the axis-aligned over-approximation of Reach(s, *, t)
// projected to position: every position the plant can occupy within [0, t]
// from (pos, vel) under the bounds.
func reachBox(pos, vel geom.Vec3, b Bounds, t time.Duration) geom.AABB {
	sec := t.Seconds()
	x := axisReach(pos.X, vel.X, b.MaxAccel, b.MaxVel, sec)
	y := axisReach(pos.Y, vel.Y, b.MaxAccel, b.MaxVel, sec)
	z := axisReach(pos.Z, vel.Z, b.MaxAccel, b.MaxVel, sec)
	return geom.AABB{
		Min: geom.V(x.Lo, y.Lo, z.Lo),
		Max: geom.V(x.Hi, y.Hi, z.Hi),
	}
}

// BrakeBox returns the positions swept while braking from (pos, vel) to rest
// at full deceleration: the stopping footprint. It is the t = 0 case of
// StopBox.
func BrakeBox(pos, vel geom.Vec3, b Bounds) geom.AABB {
	return geom.AABB{
		Min: geom.V(
			pos.X-brakeExcursion(-vel.X, b.BrakeDecel),
			pos.Y-brakeExcursion(-vel.Y, b.BrakeDecel),
			pos.Z-brakeExcursion(-vel.Z, b.BrakeDecel),
		),
		Max: geom.V(
			pos.X+brakeExcursion(vel.X, b.BrakeDecel),
			pos.Y+brakeExcursion(vel.Y, b.BrakeDecel),
			pos.Z+brakeExcursion(vel.Z, b.BrakeDecel),
		),
	}
}

// StopBox returns an axis-aligned over-approximation of every position
// occupied by any run that evolves under arbitrary admissible control for up
// to t and then brakes to rest: the t-horizon reach box extended on each
// side by the braking excursion of the worst velocity attainable within t.
func StopBox(pos, vel geom.Vec3, b Bounds, t time.Duration) geom.AABB {
	sec := t.Seconds()
	box := reachBox(pos, vel, b, t)
	ext := func(v float64) (lo, hi float64) {
		vHi := math.Min(b.MaxVel, v+b.MaxAccel*sec)
		vLo := math.Max(-b.MaxVel, v-b.MaxAccel*sec)
		return brakeExcursion(-vLo, b.BrakeDecel), brakeExcursion(vHi, b.BrakeDecel)
	}
	xl, xh := ext(vel.X)
	yl, yh := ext(vel.Y)
	zl, zh := ext(vel.Z)
	return geom.AABB{
		Min: box.Min.Sub(geom.V(xl, yl, zl)),
		Max: box.Max.Add(geom.V(xh, yh, zh)),
	}
}

// Analyzer bundles the workspace, dynamic bounds, DM period and hysteresis
// used to build the predicates of a motion RTA module. It implements the
// "three essential steps" of Section V-A: the ttf2Δ switching condition
// (AC→SC), the φsafer return condition (SC→AC), and the φsafe monitor.
type Analyzer struct {
	ws     *geom.Workspace
	idx    *geom.Index // margin-resolved query index, built once
	bounds Bounds
	margin float64       // drone bounding radius
	delta  time.Duration // Δ, the DM period
	hyst   float64       // φsafer horizon multiplier (≥ 1): h = hyst · 2Δ
	saferH time.Duration // hyst · 2Δ, precomputed
}

// NewAnalyzer constructs the analyzer. margin is the drone's bounding radius
// used to inflate obstacles; hysteresis scales the φsafer horizon relative
// to 2Δ — 1 makes φsafer exactly R(φsafe, 2Δ) as in Section V-A, larger
// values trade AC usage for fewer AC/SC oscillations (Remark 3.3).
func NewAnalyzer(ws *geom.Workspace, b Bounds, margin float64, delta time.Duration, hysteresis float64) (*Analyzer, error) {
	if ws == nil {
		return nil, fmt.Errorf("nil workspace")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if margin < 0 {
		return nil, fmt.Errorf("margin %v must be non-negative", margin)
	}
	if delta <= 0 {
		return nil, fmt.Errorf("Δ = %v must be positive", delta)
	}
	if hysteresis < 1 {
		return nil, fmt.Errorf("hysteresis %v must be ≥ 1", hysteresis)
	}
	return &Analyzer{
		ws:     ws,
		idx:    ws.IndexFor(margin),
		bounds: b,
		margin: margin,
		delta:  delta,
		hyst:   hysteresis,
		saferH: time.Duration(float64(2*delta) * hysteresis),
	}, nil
}

// Workspace returns the analyzer's workspace.
func (a *Analyzer) Workspace() *geom.Workspace { return a.ws }

// Bounds returns the assumed dynamic bounds.
func (a *Analyzer) Bounds() Bounds { return a.bounds }

// Delta returns Δ.
func (a *Analyzer) Delta() time.Duration { return a.delta }

// Margin returns the obstacle inflation margin.
func (a *Analyzer) Margin() float64 { return a.margin }

// SaferHorizon returns the φsafer stop-box horizon h = hysteresis · 2Δ.
func (a *Analyzer) SaferHorizon() time.Duration { return a.saferH }

// Safe is φsafe over the full kinematic state: the braking footprint from
// (pos, vel) is collision-free. φsafe is control-invariant under the
// braking safe controller, which is exactly property (P2a).
func (a *Analyzer) Safe(pos, vel geom.Vec3) bool {
	return a.idx.BoxFree(BrakeBox(pos, vel, a.bounds))
}

// TTF2Delta is the Figure 9 switching check: true when Reach(s, *, 2Δ) ⊄
// φsafe, i.e. some admissible behaviour within 2Δ leads to a state whose
// braking footprint is not collision-free.
func (a *Analyzer) TTF2Delta(pos, vel geom.Vec3) bool {
	return !a.idx.BoxFree(StopBox(pos, vel, a.bounds, 2*a.delta))
}

// InSafer is st ∈ φsafer: the stop box over the (hysteresis-scaled) horizon
// is collision-free. Because SaferHorizon ≥ 2Δ, (P3) holds by construction:
// any state reachable within 2Δ from φsafer still has its braking footprint
// inside the original stop box, hence remains in φsafe.
func (a *Analyzer) InSafer(pos, vel geom.Vec3) bool {
	return a.idx.BoxFree(StopBox(pos, vel, a.bounds, a.saferH))
}

// Region classifies a state into the regions of operation of Figure 10.
type Region int

// Regions of operation (Figure 10). R2 is safe but not recoverable by the
// 2Δ look-ahead; R3\R4 is the switching control region; R5 is φsafer where
// control returns to AC.
const (
	RegionUnsafe    Region = iota + 1 // R1: ¬φsafe
	RegionSafe                        // R2: φsafe but ttf2Δ (can escape within 2Δ)
	RegionRecover                     // R3/R4: φsafe ∧ ¬ttf2Δ ∧ ¬φsafer
	RegionSaferCore                   // R5: φsafer
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionUnsafe:
		return "R1-unsafe"
	case RegionSafe:
		return "R2-escapable"
	case RegionRecover:
		return "R3R4-recoverable"
	case RegionSaferCore:
		return "R5-safer"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Classify maps a kinematic state to its region of operation.
func (a *Analyzer) Classify(pos, vel geom.Vec3) Region {
	if !a.Safe(pos, vel) {
		return RegionUnsafe
	}
	if a.TTF2Delta(pos, vel) {
		return RegionSafe
	}
	if a.InSafer(pos, vel) {
		return RegionSaferCore
	}
	return RegionRecover
}

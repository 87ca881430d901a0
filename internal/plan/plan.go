// Package plan implements the motion-planning substrate of the case study
// (Section V-C): a full RRT* sampling-based planner standing in for the
// third-party OMPL implementation — including the deterministic bug
// injection the paper applied ("we injected bugs into the implementation of
// RRT* such that in some cases the generated motion plan can collide with
// obstacles") — and a certified grid A* planner used as the safe planner.
//
// RRTStarConfig carries only what varies between planners (clearance, seed,
// injected bug and its rate); the sampler's tuning for the 50 m city
// workspace is fixed, and DefaultBugRate is the Section V-C bug rate.
package plan

import (
	"errors"
	"fmt"

	"repro/internal/geom"
)

// A Plan is a sequence of waypoints w1...wn; consecutive waypoints are
// connected by straight reference-trajectory segments (the dotted lines of
// Figure 2).
type Plan []geom.Vec3

// Clone returns a copy of the plan.
func (p Plan) Clone() Plan {
	out := make(Plan, len(p))
	copy(out, p)
	return out
}

// Planner computes a waypoint plan from start to goal.
type Planner interface {
	Plan(start, goal geom.Vec3) (Plan, error)
}

// Planning errors.
var (
	ErrNoPath = errors.New("no collision-free path found")
)

// Validate checks φplan for the plan: every segment keeps margin clearance,
// the plan starts near start and ends near goal. It returns the index of the
// first offending segment on failure.
func Validate(p Plan, ws *geom.Workspace, margin float64, start, goal geom.Vec3, tol float64) error {
	if len(p) == 0 {
		return errors.New("empty plan")
	}
	if d := p[0].Dist(start); d > tol {
		return fmt.Errorf("plan starts %.2fm from start (tolerance %.2fm)", d, tol)
	}
	if d := p[len(p)-1].Dist(goal); d > tol {
		return fmt.Errorf("plan ends %.2fm from goal (tolerance %.2fm)", d, tol)
	}
	if len(p) == 1 {
		if !ws.FreeWithMargin(p[0], margin) {
			return fmt.Errorf("waypoint 0 at %v violates clearance %.2fm", p[0], margin)
		}
		return nil
	}
	for i := 0; i+1 < len(p); i++ {
		if !ws.SegmentFree(p[i], p[i+1], margin) {
			return fmt.Errorf("segment %d (%v → %v) collides within margin %.2fm", i, p[i], p[i+1], margin)
		}
	}
	return nil
}

// FirstUnsafeSegment returns the index of the first segment of the plan that
// violates the clearance margin, or -1 when the whole plan is safe.
func FirstUnsafeSegment(p Plan, ws *geom.Workspace, margin float64) int {
	if len(p) == 1 {
		if !ws.FreeWithMargin(p[0], margin) {
			return 0
		}
		return -1
	}
	for i := 0; i+1 < len(p); i++ {
		if !ws.SegmentFree(p[i], p[i+1], margin) {
			return i
		}
	}
	return -1
}

// Shortcut greedily smooths the plan: it repeatedly removes intermediate
// waypoints whenever the direct segment between their neighbours is free
// with the given margin. The input plan is not modified.
func Shortcut(p Plan, ws *geom.Workspace, margin float64) Plan {
	if len(p) <= 2 {
		return p.Clone()
	}
	out := Plan{p[0]}
	i := 0
	for i < len(p)-1 {
		j := len(p) - 1
		for j > i+1 && !ws.SegmentFree(p[i], p[j], margin) {
			j--
		}
		out = append(out, p[j])
		i = j
	}
	return out
}

// Package mission wires the drone surveillance software stack of Figure 8:
// a surveillance application node, an RTA-protected motion planner (φplan),
// a battery-safety RTA module (φbat) and an RTA-protected motion-primitive
// module (φmpr), communicating over publish-subscribe topics. Build
// compiles a StackConfig into the stack used by the simulations, examples
// and benchmarks. DefaultStackConfig is the one table
// of stack defaults. The node implementations and module declarations with
// their predicates are unexported and take no defaults of their own: what
// never varies between stacks (node periods, tolerances, the lander's
// altitude) is a constant or comes from the plant parameters, and Build
// passes everything else.
package mission

import (
	"repro/internal/geom"
	"repro/internal/plan"
	"repro/internal/plant"
	"repro/internal/pubsub"
)

// Topic names of the stack. A topic is an abstraction of a communication
// channel (Section II-B).
const (
	// TopicDroneState carries the trusted state estimate (plant.State).
	// Published by the environment (the state estimators are trusted,
	// Section II-A).
	TopicDroneState = pubsub.TopicName("drone/state")
	// TopicMissionTarget carries the next surveillance target (geom.Vec3),
	// published by the application node.
	TopicMissionTarget = pubsub.TopicName("mission/target")
	// TopicPlan carries the current motion plan (plan.Plan) from the
	// RTA-protected planner module.
	TopicPlan = pubsub.TopicName("plan/current")
	// TopicActivePlan carries the plan actually executed (ActivePlan),
	// output of the battery-safety module: under nominal battery it
	// forwards TopicPlan; in battery-SC mode it is a landing plan.
	TopicActivePlan = pubsub.TopicName("plan/active")
	// TopicWaypoint carries the current waypoint command (Waypoint) from
	// the waypoint manager to the motion primitives.
	TopicWaypoint = pubsub.TopicName("wp/target")
	// TopicCmd carries the commanded acceleration (geom.Vec3) from the
	// motion-primitive module to the plant.
	TopicCmd = pubsub.TopicName("cmd/accel")
)

// ActivePlan is the value carried by TopicActivePlan: the waypoints to
// execute plus whether this is a battery-safety landing plan.
type ActivePlan struct {
	Waypoints plan.Plan
	Landing   bool
	// Seq increments on every distinct plan, letting consumers detect
	// replacement cheaply.
	Seq uint64
}

// Waypoint is the value carried by TopicWaypoint: the segment of the
// reference trajectory currently being tracked.
type Waypoint struct {
	// From and Target delimit the current reference segment.
	From, Target geom.Vec3
	// Land is set while executing a landing plan: touching down at Target
	// is intended, not a failure.
	Land bool
	// Valid is false until a plan is available.
	Valid bool
}

// droneState extracts the plant state from a valuation, reporting false
// until the environment has published one.
func droneState(v pubsub.Valuation) (plant.State, bool) {
	raw, ok := v[TopicDroneState]
	if !ok || raw == nil {
		return plant.State{}, false
	}
	st, ok := raw.(plant.State)
	return st, ok
}

// missionTarget extracts the current mission target.
func missionTarget(v pubsub.Valuation) (geom.Vec3, bool) {
	raw, ok := v[TopicMissionTarget]
	if !ok || raw == nil {
		return geom.Vec3{}, false
	}
	t, ok := raw.(geom.Vec3)
	return t, ok
}

// currentPlan extracts the planner module's output plan.
func currentPlan(v pubsub.Valuation) (plan.Plan, bool) {
	raw, ok := v[TopicPlan]
	if !ok || raw == nil {
		return nil, false
	}
	p, ok := raw.(plan.Plan)
	return p, ok && len(p) > 0
}

// activePlan extracts the battery module's output plan.
func activePlan(v pubsub.Valuation) (ActivePlan, bool) {
	raw, ok := v[TopicActivePlan]
	if !ok || raw == nil {
		return ActivePlan{}, false
	}
	p, ok := raw.(ActivePlan)
	return p, ok && len(p.Waypoints) > 0
}

// waypoint extracts the current waypoint command.
func waypoint(v pubsub.Valuation) (Waypoint, bool) {
	raw, ok := v[TopicWaypoint]
	if !ok || raw == nil {
		return Waypoint{}, false
	}
	w, ok := raw.(Waypoint)
	return w, ok && w.Valid
}

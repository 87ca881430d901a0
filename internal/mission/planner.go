package mission

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/plan"
	"repro/internal/pubsub"
	"repro/internal/rta"
)

// plannerState caches the last plan so the planner only replans when the
// mission target changes or planning previously failed.
type plannerState struct {
	haveTarget bool
	target     geom.Vec3
	cached     plan.Plan
}

// replanDist is how far the mission target must move before a caching
// planner node replans.
const replanDist = 0.5

// plannerNode builds a planner node (AC or SC flavour) with period
// plannerDelta: it subscribes to the mission target and drone state and
// publishes a waypoint plan from the drone's position to the target, drawn
// by planner (the buggy RRT* for the AC, certified A* for the SC). The node
// caches its plan until the target moves; with alwaysReplan it recomputes a
// plan every period instead. Sampling-based planners draw a fresh plan each
// time, so a defective draw is replaced on the next period — typical of how
// an untrusted third-party planner is actually deployed.
func plannerNode(name string, planner plan.Planner, alwaysReplan bool) (*node.Node, error) {
	if planner == nil {
		return nil, fmt.Errorf("planner node %q: nil planner", name)
	}
	out := make(pubsub.Valuation, 1) // refilled every firing (node.StepFunc)
	step := func(st node.State, in pubsub.Valuation) (node.State, pubsub.Valuation, error) {
		s, ok := st.(*plannerState)
		if !ok {
			return nil, nil, fmt.Errorf("planner node %q: bad state type %T", name, st)
		}
		target, haveTarget := missionTarget(in)
		ds, haveState := droneState(in)
		if !haveTarget || !haveState || ds.Landed {
			return s, nil, nil
		}
		next := *s
		needReplan := alwaysReplan || !s.haveTarget || s.target.Dist(target) > replanDist || len(s.cached) == 0
		if needReplan {
			p, err := planner.Plan(ds.Pos, target)
			if err != nil {
				// Planning failures are not fatal: keep the previous plan
				// (or none) and retry next period. The RTA layers below
				// keep the system safe meanwhile.
				return &next, nil, nil
			}
			next.haveTarget = true
			next.target = target
			next.cached = p
		}
		out[TopicPlan] = next.cached
		return &next, out, nil
	}
	return node.New(
		name,
		plannerDelta,
		[]pubsub.TopicName{TopicDroneState, TopicMissionTarget},
		[]pubsub.TopicName{TopicPlan},
		step,
		node.WithInit(func() node.State { return &plannerState{} }),
	)
}

// plannerModule declares the RTA-protected motion planner of Section V-C
// over the planner nodes ac and sc, with Δ = plannerDelta. It guarantees
// φplan: the reference trajectory handed downstream never leads the drone
// into an obstacle, where a plan is valid if every segment clears ws by
// margin. The monitored state is (plan/current, drone/state):
//
//   - ttf2Δ: the plan has a colliding segment and the drone could reach it
//     within 2Δ at maxVel (or there is no plan while one is demanded);
//   - φsafer: the whole current plan is collision-free;
//   - φsafe: no colliding segment of the current plan is within Δ·maxVel of
//     the drone.
//
// maxVel bounds the drone's progress along the plan, fixing how far ahead
// of the drone a plan defect becomes urgent.
func plannerModule(ac, sc *node.Node, ws *geom.Workspace, margin, maxVel float64) (*rta.Module, error) {
	if ws == nil {
		return nil, fmt.Errorf("planner module: nil workspace")
	}
	if maxVel <= 0 {
		return nil, fmt.Errorf("planner module: MaxVel must be positive")
	}
	horizon2 := maxVel * (2 * plannerDelta).Seconds()
	horizon1 := maxVel * plannerDelta.Seconds()

	unsafeWithin := func(v pubsub.Valuation, horizon float64) bool {
		p, havePlan := currentPlan(v)
		if !havePlan {
			return false // no plan → drone holds; nothing unsafe to follow
		}
		ds, haveState := droneState(v)
		idx := plan.FirstUnsafeSegment(p, ws, margin)
		if idx < 0 {
			return false
		}
		if !haveState {
			return true // unsafe plan and unknown drone position: fail safe
		}
		// Distance from the drone to the start of the unsafe segment,
		// conservatively straight-line.
		return ds.Pos.Dist(p[idx]) <= horizon
	}

	return rta.NewModule(rta.Decl{
		Name:  "safe-motion-planner",
		AC:    ac,
		SC:    sc,
		Delta: plannerDelta,
		Monitored: []pubsub.TopicName{
			TopicPlan, TopicDroneState, TopicMissionTarget,
		},
		TTF2Delta: func(v pubsub.Valuation) bool {
			return unsafeWithin(v, horizon2)
		},
		InSafer: func(v pubsub.Valuation) bool {
			p, havePlan := currentPlan(v)
			if !havePlan {
				return false
			}
			return plan.FirstUnsafeSegment(p, ws, margin) < 0
		},
		Safe: func(v pubsub.Valuation) bool {
			return !unsafeWithin(v, horizon1)
		},
	})
}

package mission

import (
	"fmt"
	"time"

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

// PlannerConfig configures a planner node (AC or SC flavour).
type PlannerConfig struct {
	// Name of the node (e.g. "planner.ac").
	Name string
	// Planner computes plans: the buggy RRT* for the AC, certified A* for
	// the SC.
	Planner plan.Planner
	// Period of the node; must be ≤ the planner module's Δ.
	Period time.Duration
	// ReplanDist: replan when the target moved by more than this.
	ReplanDist float64
	// AlwaysReplan makes the node recompute a plan every period instead of
	// caching until the target moves. Sampling-based planners draw a fresh
	// plan each time, so a defective draw is replaced on the next period —
	// typical of how an untrusted third-party planner is actually deployed.
	AlwaysReplan bool
}

// NewPlannerNode builds a planner node: it subscribes to the mission target
// and drone state and publishes a waypoint plan from the drone's position to
// the target.
func NewPlannerNode(cfg PlannerConfig) (*node.Node, error) {
	if cfg.Planner == nil {
		return nil, fmt.Errorf("planner node %q: nil planner", cfg.Name)
	}
	if cfg.Period <= 0 {
		cfg.Period = 500 * time.Millisecond
	}
	if cfg.ReplanDist <= 0 {
		cfg.ReplanDist = 0.5
	}
	out := make(pubsub.Valuation, 1) // refilled every firing (node.StepFunc)
	step := func(st node.State, in pubsub.Valuation) (node.State, pubsub.Valuation, error) {
		s, ok := st.(*plannerState)
		if !ok {
			return nil, nil, fmt.Errorf("planner node %q: bad state type %T", cfg.Name, st)
		}
		target, haveTarget := missionTarget(in)
		ds, haveState := droneState(in)
		if !haveTarget || !haveState || ds.Landed {
			return s, nil, nil
		}
		next := *s
		needReplan := cfg.AlwaysReplan || !s.haveTarget || s.target.Dist(target) > cfg.ReplanDist || len(s.cached) == 0
		if needReplan {
			p, err := cfg.Planner.Plan(ds.Pos, target)
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
		cfg.Name,
		cfg.Period,
		[]pubsub.TopicName{TopicDroneState, TopicMissionTarget},
		[]pubsub.TopicName{TopicPlan},
		step,
		node.WithInit(func() node.State { return &plannerState{} }),
	)
}

// PlannerModuleConfig configures the RTA-protected motion planner of
// Section V-C, guaranteeing φplan: the reference trajectory handed
// downstream never leads the drone into an obstacle.
type PlannerModuleConfig struct {
	// AC and SC are the untrusted and certified planner nodes.
	AC, SC *node.Node
	// Delta is the planner DM period.
	Delta time.Duration
	// Workspace and Margin define plan validity.
	Workspace *geom.Workspace
	Margin    float64
	// MaxVel bounds the drone's progress along the plan, fixing how far
	// ahead of the drone a plan defect becomes urgent: the ttf2Δ check
	// fires when an unsafe segment is within 2Δ·MaxVel of travel.
	MaxVel float64
}

// NewPlannerModule declares the planner RTA module. The monitored state is
// (plan/current, drone/state):
//
//   - ttf2Δ: the plan has a colliding segment and the drone could reach it
//     within 2Δ at MaxVel (or there is no plan while one is demanded);
//   - φsafer: the whole current plan is collision-free;
//   - φsafe: no colliding segment of the current plan is within Δ·MaxVel of
//     the drone.
func NewPlannerModule(cfg PlannerModuleConfig) (*rta.Module, error) {
	if cfg.Workspace == nil {
		return nil, fmt.Errorf("planner module: nil workspace")
	}
	if cfg.MaxVel <= 0 {
		return nil, fmt.Errorf("planner module: MaxVel must be positive")
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 500 * time.Millisecond
	}
	horizon2 := cfg.MaxVel * (2 * cfg.Delta).Seconds()
	horizon1 := cfg.MaxVel * cfg.Delta.Seconds()

	unsafeWithin := func(v pubsub.Valuation, horizon float64) bool {
		p, havePlan := currentPlan(v)
		if !havePlan {
			return false // no plan → drone holds; nothing unsafe to follow
		}
		ds, haveState := droneState(v)
		idx := plan.FirstUnsafeSegment(p, cfg.Workspace, cfg.Margin)
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
		AC:    cfg.AC,
		SC:    cfg.SC,
		Delta: cfg.Delta,
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
			return plan.FirstUnsafeSegment(p, cfg.Workspace, cfg.Margin) < 0
		},
		Safe: func(v pubsub.Valuation) bool {
			return !unsafeWithin(v, horizon1)
		},
	})
}

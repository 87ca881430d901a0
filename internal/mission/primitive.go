package mission

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/node"
	"repro/internal/pubsub"
	"repro/internal/reach"
	"repro/internal/rta"
)

// wpState is the waypoint manager's local state: the active plan, the
// index of the waypoint currently being tracked and the boxed Waypoint
// published for them, republished as is while neither changes.
type wpState struct {
	seq     uint64
	landing bool
	plan    ActivePlan
	idx     int
	pub     pubsub.Value
}

// waypointTolerance is the arrival distance at which the waypoint manager
// advances to the next waypoint.
const waypointTolerance = 0.8

// waypointManagerNode builds the trusted glue node "wpmanager" that walks
// the active plan at primitivePeriod: it publishes the current reference
// segment (previous waypoint → current waypoint) and advances when the drone
// arrives. It resets to the first waypoint whenever the active plan is
// replaced.
func waypointManagerNode() (*node.Node, error) {
	out := make(pubsub.Valuation, 1) // refilled every firing (node.StepFunc)
	step := func(st node.State, in pubsub.Valuation) (node.State, pubsub.Valuation, error) {
		s, ok := st.(*wpState)
		if !ok {
			return nil, nil, fmt.Errorf("waypoint manager: bad state type %T", st)
		}
		ap, havePlan := activePlan(in)
		ds, haveState := droneState(in)
		if !havePlan || !haveState {
			out[TopicWaypoint] = Waypoint{}
			return s, out, nil
		}
		next := s
		if ap.Seq != s.seq || len(s.plan.Waypoints) == 0 {
			next = &wpState{seq: ap.Seq, landing: ap.Landing, plan: ap}
			if len(ap.Waypoints) > 1 {
				next.idx = 1 // waypoint 0 is the start position
			}
		}
		wps := next.plan.Waypoints
		idx := next.idx
		for idx < len(wps)-1 && ds.Pos.Dist(wps[idx]) <= waypointTolerance {
			idx++
		}
		if next == s {
			if idx == s.idx { // same plan, same waypoint
				out[TopicWaypoint] = s.pub
				return s, out, nil
			}
			cp := *s
			next = &cp
		}
		next.idx = idx
		from := wps[0]
		if idx > 0 {
			from = wps[idx-1]
		}
		next.pub = Waypoint{
			From:   from,
			Target: wps[idx],
			Land:   next.landing,
			Valid:  true,
		}
		out[TopicWaypoint] = next.pub
		return next, out, nil
	}
	return node.New(
		"wpmanager",
		primitivePeriod,
		[]pubsub.TopicName{TopicActivePlan, TopicDroneState},
		[]pubsub.TopicName{TopicWaypoint},
		step,
		node.WithInit(func() node.State { return &wpState{} }),
	)
}

// primitiveClock reads a motion primitive's local state, its own clock, and
// returns the clock after one more firing. It is the whole state transition
// of the node: the step and the idle step both advance the clock through
// it, so the two cannot drift apart.
func primitiveClock(st node.State) (now, next time.Duration) {
	t, _ := st.(time.Duration)
	return t, t + primitivePeriod
}

// primitiveIdle is the motion primitive's idle step (node.WithIdleStep): the
// clock advances on every firing the executor does not drop, whether or not
// OE enables the node's outputs.
func primitiveIdle(st node.State) node.State {
	_, next := primitiveClock(st)
	return next
}

// primitiveNode wraps a controller as a motion-primitive node with period
// primitivePeriod: it subscribes to the drone state and current waypoint and
// publishes the commanded acceleration, like the MotionPrimitive node of
// Figure 4. The next state never reads the inputs, so the node declares an
// idle step: the controller of a module that OE has disabled computes no
// command.
func primitiveNode(name string, ctrl controller.Controller) (*node.Node, error) {
	if ctrl == nil {
		return nil, fmt.Errorf("primitive node %q: nil controller", name)
	}
	// The node's local state is its own clock, advanced by one period per
	// firing; controllers use it for time-dependent behaviour (faults).
	out := make(pubsub.Valuation, 1) // refilled every firing (node.StepFunc)
	step := func(st node.State, in pubsub.Valuation) (node.State, pubsub.Valuation, error) {
		t, nextT := primitiveClock(st)
		ds, haveState := droneState(in)
		wp, haveWP := waypoint(in)
		if !haveState || ds.Landed {
			return nextT, nil, nil
		}
		target := ds.Pos // hold position until a waypoint arrives
		if haveWP {
			target = wp.Target
		}
		out[TopicCmd] = ctrl.Control(t, ds.Pos, ds.Vel, target)
		return nextT, out, nil
	}
	return node.New(
		name,
		primitivePeriod,
		[]pubsub.TopicName{TopicDroneState, TopicWaypoint},
		[]pubsub.TopicName{TopicCmd},
		step,
		node.WithInit(func() node.State { return time.Duration(0) }),
		node.WithIdleStep(primitiveIdle),
	)
}

// primitiveModule declares the RTA-protected motion-primitive module of
// Section V-A, guaranteeing φmpr via the analyzer's reachability predicates:
// ttf2Δ = ¬(StopBox(s, 2Δ) free), φsafer = StopBox(s, h) free for the
// hysteresis horizon h ≥ 2Δ, φsafe = BrakeBox(s) free.
//
// Two analyzers parameterise the predicates: the strict one geo-fences the
// floor as well as the obstacles; the landing one protects obstacles only.
// While the active waypoint is a landing waypoint (the battery module's
// certified lander is descending on purpose), the landing analyzer is used —
// the paper's φobs concerns obstacles, and ground contact during landing is
// owned by the battery-safety argument.
//
// With oneWay set the module never returns control to the AC after a switch
// — the classic Simplex behaviour the paper's two-way switching improves on
// (used by the ablation benchmark).
//
// policy selects the module's switching policy; nil runs the paper's
// Figure 9 rules. The policy only decides *when* to hand control between the
// controllers — the safety clamp (any proposed AC is overridden to SC when
// ttf2Δ fails) is enforced by the rta.Module regardless of policy, so φmpr
// holds for every policy. oneWay is defined only for the
// default policy: its latch gates the φsafer predicate, which the Figure 9
// recovery consults but a custom policy may not (always-ac would re-engage
// straight past it), so combining oneWay with a non-default policy is
// rejected — the classic-Simplex baseline is an ablation of the Figure 9
// return path specifically.
func primitiveModule(ac, sc *node.Node, strict, landing *reach.Analyzer, oneWay bool, policy rta.Policy) (*rta.Module, error) {
	if oneWay && policy != nil && policy.Name() != rta.DefaultPolicyName {
		return nil, fmt.Errorf("primitive module: one-way switching is defined for the default %s policy only, not %q", rta.DefaultPolicyName, policy.Name())
	}
	pick := func(v pubsub.Valuation) *reach.Analyzer {
		if wp, ok := waypoint(v); ok && wp.Land {
			return landing
		}
		return strict
	}
	// One-way latch: classic Simplex engages the AC once at startup and,
	// after the first disengagement, stays on the SC forever. The latch is
	// deliberate mutable state inside the predicates — acceptable for this
	// ablation baseline, which is only exercised by the simulator.
	var disengaged bool
	return rta.NewModule(rta.Decl{
		Name:      "safe-motion-primitive",
		AC:        ac,
		SC:        sc,
		Delta:     strict.Delta(),
		Policy:    policy,
		Monitored: []pubsub.TopicName{TopicDroneState, TopicWaypoint},
		TTF2Delta: func(v pubsub.Valuation) bool {
			ds, ok := droneState(v)
			if !ok {
				return true // no state estimate: fail safe
			}
			if ds.Landed {
				return false
			}
			trip := pick(v).TTF2Delta(ds.Pos, ds.Vel)
			if trip && oneWay {
				disengaged = true
			}
			return trip
		},
		InSafer: func(v pubsub.Valuation) bool {
			if oneWay && disengaged {
				return false // classic Simplex: no SC→AC return
			}
			ds, ok := droneState(v)
			if !ok {
				return false
			}
			if ds.Landed {
				return true
			}
			return pick(v).InSafer(ds.Pos, ds.Vel)
		},
		Safe: func(v pubsub.Valuation) bool {
			ds, ok := droneState(v)
			if !ok {
				return true
			}
			if ds.Landed {
				return true
			}
			return pick(v).Safe(ds.Pos, ds.Vel)
		},
	})
}

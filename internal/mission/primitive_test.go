package mission

import (
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/plant"
	"repro/internal/pubsub"
)

// FuzzPrimitiveIdleStep holds a motion primitive's idle step to its step:
// for any clock state (none included) and any input valuation (no drone
// state, no or an invalid waypoint, a landed drone included), the idle step
// returns exactly the state the step returns. The controller has a fault
// window, so the step's command depends on the clock it reads.
func FuzzPrimitiveIdleStep(f *testing.F) {
	f.Add(int64(0), false, true, false, true, true, 1.0, 2.0, 3.0, 0.5, -0.5, 0.0, 10.0, 10.0, 3.0)
	f.Add(int64(2_000_000_000), false, true, false, true, true, 1.0, 2.0, 3.0, 0.5, -0.5, 0.0, 10.0, 10.0, 3.0)
	f.Add(int64(40_000_000), true, false, false, false, false, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(int64(-7), false, true, true, true, true, 5.0, 5.0, 0.4, 0.0, 0.0, 0.0, 5.0, 5.0, 0.0)
	f.Add(int64(1<<62), false, true, false, false, false, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 0.0, 0.0, 0.0)
	limits := controller.Limits{MaxAccel: 5, MaxVel: 3}
	ctrl := controller.WithFaults(controller.NewAggressive(limits), limits, []controller.Fault{
		{Kind: controller.FaultInvertAxis, Start: time.Second, End: 3 * time.Second},
	})
	n, err := primitiveNode("mpr.ac", ctrl)
	if err != nil {
		f.Fatal(err)
	}
	idle := n.IdleStep()
	if idle == nil {
		f.Fatal("motion primitive declares no idle step")
	}
	f.Fuzz(func(t *testing.T, clock int64, noClock, haveState, landed, haveWP, wpValid bool,
		px, py, pz, vx, vy, vz, tx, ty, tz float64) {
		var st node.State = time.Duration(clock)
		if noClock {
			st = nil
		}
		in := pubsub.Valuation{}
		if haveState {
			in[TopicDroneState] = plant.State{Pos: geom.V(px, py, pz), Vel: geom.V(vx, vy, vz), Battery: 1, Landed: landed}
		}
		if haveWP {
			in[TopicWaypoint] = Waypoint{Target: geom.V(tx, ty, tz), Valid: wpValid}
		}
		next, _, err := n.Step(st, in)
		if err != nil {
			t.Fatal(err)
		}
		if got := idle(st); got != next {
			t.Fatalf("state %v: idle step gives %v, step gives %v", st, got, next)
		}
	})
}

package sim

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/node"
	"repro/internal/plant"
	"repro/internal/pubsub"
	"repro/internal/rta"
)

// brokenStack hand-assembles a minimal mission.Stack around an RTA module
// whose φsafe predicate is rigged to fail at every DM sampling instant. The
// real mission modules can never violate φInv (that is Theorem 3.1, and the
// fault-fuzzing tests hold them to it), so proving the monitor runs requires
// a module that is wrong by construction.
func brokenStack(t *testing.T) *mission.Stack {
	t.Helper()
	hover := func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
		return st, pubsub.Valuation{mission.TopicCmd: geom.Vec3{}}, nil
	}
	mk := func(name string) *node.Node {
		n, err := node.New(name, 20*time.Millisecond,
			[]pubsub.TopicName{mission.TopicDroneState}, []pubsub.TopicName{mission.TopicCmd}, hover)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	mod, err := rta.NewModule(rta.Decl{
		Name:      "broken-module",
		AC:        mk("broken.ac"),
		SC:        mk("broken.sc"),
		Delta:     100 * time.Millisecond,
		TTF2Delta: func(pubsub.Valuation) bool { return false },
		InSafer:   func(pubsub.Valuation) bool { return false },
		Safe:      func(pubsub.Valuation) bool { return false }, // always violated
	})
	if err != nil {
		t.Fatal(err)
	}
	// The simulator's environment resolves the waypoint topic at setup, so
	// some node must declare it.
	wp, err := node.New("wp", 500*time.Millisecond, nil,
		[]pubsub.TopicName{mission.TopicWaypoint},
		func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
			return st, pubsub.Valuation{mission.TopicWaypoint: mission.Waypoint{}}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rta.NewSystem([]*rta.Module{mod}, []*node.Node{wp})
	if err != nil {
		t.Fatal(err)
	}
	ws := geom.CityWorkspace()
	return &mission.Stack{
		System: sys,
		Config: mission.StackConfig{Workspace: ws, PlantParams: plant.DefaultParams()},
	}
}

// TestMonitorNeedsNoOption: a RunConfig that sets nothing about φInv counts
// the violations of a module whose φsafe always fails, one per DM sampling
// instant, and runs to its deadline rather than stopping at the first.
func TestMonitorNeedsNoOption(t *testing.T) {
	res, err := Run(RunConfig{
		Stack:    brokenStack(t),
		Initial:  plant.State{Pos: geom.V(3, 3, 2), Battery: 1},
		Duration: 2 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Duration != 2*time.Second {
		t.Errorf("run ended at %v, want its 2s deadline", m.Duration)
	}
	if m.InvariantViolations != 20 {
		t.Errorf("counted %d φInv violations, want 20, one per DM step (every 100 ms from 20 ms)", m.InvariantViolations)
	}
}

package scenario_test

import (
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// missionAllocBound caps the heap allocations of one planner-off mission
// (build plus run): corner-hazard-tour, 5 s, soter-fig9. With boxed
// NodeFired events, per-firing output maps and per-search A* arrays a
// mission made ~4.9k; the unboxed, node-owned hot path made ~2.3k, and
// republishing unchanged boxed values (battery AC and lander, waypoint
// manager) makes ~1.8k. Reboxing NodeFired alone adds ~0.9k, a per-firing
// output map in the motion primitives alone ~1k, reboxing the waypoint
// manager's state and output ~0.4k.
const missionAllocBound = 2100

// TestMissionAllocations guards the hot path's allocation budget: reboxing
// an event per firing or allocating an output valuation per node step
// pushes a mission over the bound.
func TestMissionAllocations(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation changes allocation counts")
	}
	spec := scenario.MustGet("corner-hazard-tour").With(scenario.Override{Apply: func(s *scenario.Spec) {
		s.Duration = 5 * time.Second
		s.SwitchPolicy = "soter-fig9"
	}})
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		cfg, err := spec.Build(1)
		if err == nil {
			_, err = sim.Run(cfg)
		}
		if err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.0f allocations per mission", allocs)
	if allocs > missionAllocBound {
		t.Fatalf("%.0f allocations per mission, want ≤ %d", allocs, missionAllocBound)
	}
}

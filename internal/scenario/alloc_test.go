package scenario_test

import (
	"runtime"
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
// manager) made ~1.8k; idling the output-disabled motion primitive
// instead of stepping it makes ~1.5k. Reboxing NodeFired alone adds ~0.9k,
// a per-firing output map in the motion primitives alone ~1k, reboxing the
// waypoint manager's state and output ~0.4k.
const missionAllocBound = 2100

// TestMissionAllocations guards the hot path's allocation budget: reboxing
// an event per firing or allocating an output valuation per node step
// pushes a mission over the bound.
func TestMissionAllocations(t *testing.T) {
	allocs := missionAllocs(t, scenario.MustGet("corner-hazard-tour").With(scenario.Override{Apply: func(s *scenario.Spec) {
		s.Duration = 5 * time.Second
		s.SwitchPolicy = "soter-fig9"
	}}))
	if allocs > missionAllocBound {
		t.Fatalf("%.0f allocations per mission, want ≤ %d", allocs, missionAllocBound)
	}
}

// idleAllocBound caps the allocations of one 10 s corner-hazard-tour
// mission without the planner module, seed 1. Its 500 motion-primitive
// instants each fire both controllers: a controller that ran its full step
// while disabled boxed one command OE then discarded, and the mission made
// 3,248 allocations. Running the disabled controller's idle step instead
// makes 2,748, so the bound leaves 152 (5.5%) of headroom: boxing a third
// of the discarded commands again fails it.
const idleAllocBound = 2900

// TestDisabledControllerAllocations guards the idle step on the hot path:
// the output-disabled motion primitive of every instant allocates no
// command.
func TestDisabledControllerAllocations(t *testing.T) {
	allocs := missionAllocs(t, scenario.MustGet("corner-hazard-tour").With(scenario.Override{Apply: func(s *scenario.Spec) {
		s.Duration = 10 * time.Second
		s.NoPlannerModule = true
	}}))
	if allocs > idleAllocBound {
		t.Fatalf("%.0f allocations per mission, want ≤ %d", allocs, idleAllocBound)
	}
}

// missionAllocBytesBound caps the bytes one 10 s corner-hazard-tour mission
// without the planner module allocates, seed 1, build included. A* is its
// only planner. While each mission's planner allocated its own dense search
// arrays and refilled them per search, the mission allocated ~254,900
// bytes. With the search scratch borrowed from the process-wide free list
// it allocates 129,994, so the bound leaves 20,006 (15%) of headroom:
// per-mission search arrays again fail it, and so would scratch that the
// free list lost between missions.
const missionAllocBytesBound = 150_000

// TestMissionAllocBytes guards the A* search scratch: a warm process plans
// a mission's searches without allocating a grid-sized array.
func TestMissionAllocBytes(t *testing.T) {
	spec := scenario.MustGet("corner-hazard-tour").With(scenario.Override{Apply: func(s *scenario.Spec) {
		s.Duration = 10 * time.Second
		s.NoPlannerModule = true
	}})
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation changes allocation counts")
	}
	run := func() {
		if err := runMission(spec); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: pooled artifacts, free-list scratch
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per mission", bytes)
	if bytes > missionAllocBytesBound {
		t.Fatalf("%d bytes allocated per mission, want ≤ %d", bytes, missionAllocBytesBound)
	}
}

// missionAllocs returns the average heap allocations of building and
// running spec with seed 1.
func missionAllocs(t *testing.T, spec scenario.Spec) float64 {
	t.Helper()
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation changes allocation counts")
	}
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		if err := runMission(spec); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.0f allocations per mission", allocs)
	return allocs
}

// runMission builds spec with seed 1 and runs it.
func runMission(spec scenario.Spec) error {
	cfg, err := spec.Build(1)
	if err == nil {
		_, err = sim.Run(cfg)
	}
	return err
}

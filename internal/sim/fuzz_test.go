package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/obs"
)

// TestRTASurvivesRandomFaultSchedules is failure-injection fuzzing of the
// Theorem 3.1 claim: for randomized fault kinds, windows and directions, the
// RTA-protected stack must never crash and never violate φInv. Each trial
// uses an independent seed; failures print the seed for replay.
func TestRTASurvivesRandomFaultSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing skipped in -short mode")
	}
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial*37)
		rng := rand.New(rand.NewSource(seed))

		cfg := mission.DefaultStackConfig(seed)
		cfg.App = mission.AppConfig{Points: squareTour()}
		nFaults := 2 + rng.Intn(5)
		for i := 0; i < nFaults; i++ {
			kind := []controller.FaultKind{
				controller.FaultStuckZero,
				controller.FaultInvertAxis,
				controller.FaultFullThrust,
				controller.FaultBias,
			}[rng.Intn(4)]
			start := time.Duration(3+rng.Intn(50)) * time.Second
			dur := time.Duration(300+rng.Intn(2000)) * time.Millisecond
			dir := geom.V(rng.Float64()*2-1, rng.Float64()*2-1, (rng.Float64()*2-1)*0.5)
			cfg.ACFaults = append(cfg.ACFaults, controller.Fault{
				Kind:  kind,
				Start: start,
				End:   start + dur,
				Param: dir.Scale(cfg.PlantParams.MaxAccel),
			})
		}
		st, err := mission.Build(cfg)
		if err != nil {
			t.Fatalf("trial %d (seed %d): build: %v", trial, seed, err)
		}
		res, err := Run(RunConfig{
			Stack:    st,
			Initial:  initialAt(geom.V(3, 3, 2)),
			Duration: 60 * time.Second,
			Seed:     seed,
		})
		if err != nil {
			t.Fatalf("trial %d (seed %d): run: %v", trial, seed, err)
		}
		m := res.Metrics
		if m.Crashed {
			t.Errorf("trial %d (seed %d): CRASH at t=%v pos=%v under faults %+v",
				trial, seed, m.CrashTime, m.CrashPos, cfg.ACFaults)
		}
		if m.InvariantViolations > 0 {
			t.Errorf("trial %d (seed %d): %d φInv violations", trial, seed, m.InvariantViolations)
		}
	}
}

// TestFullStackReplayDeterminism: two runs with identical seeds produce
// identical metrics and switch logs — the property the systematic-testing
// engine's replay-based exploration relies on.
func TestFullStackReplayDeterminism(t *testing.T) {
	runOnce := func() (*Result, []obs.TrajectorySample) {
		cfg := mission.DefaultStackConfig(21)
		cfg.PlannerBugRate = 0.3
		cfg.App = mission.AppConfig{Random: true}
		cfg.ACFaults = faultWindows()
		st, err := mission.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var traj []obs.TrajectorySample
		res, err := Run(RunConfig{
			Stack:        st,
			Initial:      initialAt(geom.V(3, 3, 2)),
			Duration:     40 * time.Second,
			Seed:         21,
			JitterProb:   0.002,
			JitterSCOnly: true,
			Observers:    []obs.Observer{trajectoryInto(&traj)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, traj
	}
	a, aTraj := runOnce()
	b, bTraj := runOnce()
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("metrics diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if !reflect.DeepEqual(a.Switches, b.Switches) {
		t.Errorf("switch logs diverged: %d vs %d entries", len(a.Switches), len(b.Switches))
	}
	if !slices.Equal(aTraj, bTraj) {
		t.Errorf("trajectories diverged: %d vs %d samples", len(aTraj), len(bTraj))
	}
}

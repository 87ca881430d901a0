// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section V). Each experiment bench runs the corresponding workload from
// internal/experiments and prints the paper-style rows once per `go test
// -bench` invocation; ns/op measures the cost of regenerating the artifact.
// Micro-benchmarks at the bottom measure the framework's hot paths (DM
// decisions, reachability checks, executor throughput); the planner
// benchmarks live next to the planners in internal/plan.
package soter_test

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	soter "repro"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/plant"
	"repro/internal/pubsub"
	"repro/internal/reach"
	"repro/internal/rta"
	"repro/internal/sim"
)

// printOnce prints each experiment table a single time even when the bench
// harness loops.
var printOnce sync.Map

func report(b *testing.B, key, text string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

// BenchmarkFig5ThirdPartyController regenerates Figure 5 (right): the
// unprotected PX4-style controller overshooting into the red regions on the
// g1..g4 tour.
func BenchmarkFig5ThirdPartyController(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5Right(experiments.Fig5Config{Seed: 1, Laps: 10})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "fig5r", res.Format())
		if res.CollidingLaps == 0 {
			b.Fatal("expected the unprotected third-party controller to collide")
		}
	}
}

// BenchmarkFig5LearnedController regenerates Figure 5 (left): the
// data-driven controller on the figure-eight, some loops deviating
// dangerously.
func BenchmarkFig5LearnedController(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5Left(experiments.Fig5Config{Seed: 5, Laps: 12})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "fig5l", res.Format())
		if res.UnsafeLoops == 0 || res.UnsafeLoops == res.Loops {
			b.Fatalf("expected a mix of safe and unsafe loops, got %d/%d", res.UnsafeLoops, res.Loops)
		}
	}
}

// BenchmarkFig6RTAProtectedPrimitive regenerates the Figure 6 behaviour: one
// RTA-protected transfer with a faulty AC — switch to SC, recover, switch
// back, arrive safely.
func BenchmarkFig6RTAProtectedPrimitive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.Fig6Config{Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "fig6", res.Format())
		if res.Crashed || !res.Reached || res.Disengagements == 0 {
			b.Fatalf("unexpected fig6 outcome: %+v", res)
		}
	}
}

// BenchmarkFig10Regions regenerates the Figure 10 regions of operation and
// the Figure 12b yellow/green region statistics (grid BRS).
func BenchmarkFig10Regions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(experiments.Fig10Config{Seed: 3, Samples: 4000})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "fig10", res.Format())
	}
}

// BenchmarkFig12aTimingComparison regenerates the Figure 12a timing numbers:
// AC-only (fast, collides) vs RTA (middle) vs SC-only (slow, safe).
func BenchmarkFig12aTimingComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12a(experiments.Fig12aConfig{Seed: 4, Tours: 2})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "fig12a", res.Format())
	}
}

// BenchmarkFig12bSurveillance regenerates Figure 12b: the RTA-protected
// surveillance mission with SC take-overs at the N points.
func BenchmarkFig12bSurveillance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12b(experiments.Fig12bConfig{Seed: 7, Duration: 2 * time.Minute, Faults: true})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "fig12b", res.Format())
		if res.Crashed {
			b.Fatal("RTA-protected surveillance mission crashed")
		}
	}
}

// BenchmarkFig12cBatterySafety regenerates Figure 12c: the battery DM lands
// the drone before the charge runs out.
func BenchmarkFig12cBatterySafety(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12c(experiments.Fig12cConfig{Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "fig12c", res.Format())
		if res.Crashed || !res.Landed {
			b.Fatalf("battery safety failed: %+v", res)
		}
	}
}

// BenchmarkSec5cSafePlanner regenerates the Section V-C planner comparison.
func BenchmarkSec5cSafePlanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec5c(experiments.Sec5cConfig{Seed: 3, Queries: 40, ClosedLoop: time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "sec5c", res.Format())
		if res.BuggyColliding == 0 || res.CertColliding != 0 || res.ClosedCrashed {
			b.Fatalf("unexpected sec5c outcome: %+v", res)
		}
	}
}

// BenchmarkSec5dEndurance regenerates the Section V-D endurance study
// (scaled hours): disengagements, crashes under best-effort scheduling vs an
// RTOS, AC-control fraction.
func BenchmarkSec5dEndurance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec5d(experiments.Sec5dConfig{Seed: 13, SimHours: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "sec5d", res.Format())
	}
}

// BenchmarkAblationDelta regenerates the Remark 3.3 ablation: Δ and
// hysteresis vs AC usage and switching.
func BenchmarkAblationDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationDelta(experiments.AblationConfig{Seed: 6})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "abl1", res.Format())
	}
}

// BenchmarkAblationNoReturn regenerates the two-way vs one-way switching
// ablation (the paper's extension over classic Simplex).
func BenchmarkAblationNoReturn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationReturn(experiments.AblationConfig{Seed: 6})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "abl2", res.Format())
	}
}

// BenchmarkAblationPolicy regenerates the switching-policy grid opened by
// the rta.Policy redesign: every registered policy family on the faulted
// mission, all crash-free by the framework clamp.
func BenchmarkAblationPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPolicy(experiments.AblationConfig{Seed: 6})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Crashed {
				b.Fatalf("policy %s crashed — the framework clamp must keep every policy safe", row.Policy)
			}
		}
		report(b, "abl3", res.Format())
	}
}

// BenchmarkFleetScaling measures batch-simulation throughput of the fleet
// engine at 1, 4 and GOMAXPROCS workers on a fixed batch of independent
// surveillance missions. Every mission builds its own stack, store, executor
// and RNG inside the worker, so on multi-core hardware throughput scales
// near-linearly with the worker bound (the acceptance target is ≥2x at 4
// workers vs 1); on a single-core box the worker counts tie. The reported
// missions/s metric is the batch throughput.
func BenchmarkFleetScaling(b *testing.B) {
	const batch = 8
	missions := fleet.SeedSweep("scale", fleet.Seeds(1, batch), func(seed int64) (sim.RunConfig, error) {
		mcfg := mission.DefaultStackConfig(seed)
		mcfg.App = mission.AppConfig{Points: []geom.Vec3{
			geom.V(3, 3, 2), geom.V(46, 46, 2), geom.V(3, 46, 2.5),
		}}
		st, err := mission.Build(mcfg)
		if err != nil {
			return sim.RunConfig{}, err
		}
		return sim.RunConfig{
			Stack:           st,
			Initial:         plant.State{Pos: geom.V(3, 3, 2), Battery: 1},
			Duration:        10 * time.Second,
			Seed:            seed,
			CheckInvariants: true,
		}, nil
	})
	workerCounts := []int{1, 4}
	if p := goruntime.GOMAXPROCS(0); p != 1 && p != 4 {
		workerCounts = append(workerCounts, p)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var completed int
			start := time.Now()
			for i := 0; i < b.N; i++ {
				rep := fleet.Run(context.Background(), missions, fleet.Options{Workers: workers})
				if err := rep.FirstErr(); err != nil {
					b.Fatal(err)
				}
				if rep.Crashes != 0 {
					b.Fatalf("%d protected missions crashed", rep.Crashes)
				}
				completed += rep.Missions
			}
			b.ReportMetric(float64(completed)/time.Since(start).Seconds(), "missions/s")
		})
	}
}

// --- framework micro-benchmarks ---------------------------------------------

// BenchmarkDMDecision measures one decision-module evaluation (Figure 9
// switching logic) on the motion-primitive predicates.
func BenchmarkDMDecision(b *testing.B) {
	cfg := mission.DefaultStackConfig(1)
	cfg.App = mission.AppConfig{Points: []geom.Vec3{geom.V(46, 46, 2)}}
	st, err := mission.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mod := st.PrimitiveModule
	val := pubsub.Valuation{
		mission.TopicDroneState: plant.State{Pos: geom.V(20, 16, 3), Vel: geom.V(2, 0, 0), Battery: 1},
		mission.TopicWaypoint:   mission.Waypoint{Target: geom.V(30, 16, 3), Valid: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mod.Decide(rta.ModeAC, val)
	}
}

// BenchmarkStopBox measures the analytic worst-case reach computation at the
// core of ttf2Δ.
func BenchmarkStopBox(b *testing.B) {
	bounds := reach.Bounds{MaxAccel: 5, MaxVel: 3, BrakeDecel: 4}
	pos, vel := geom.V(20, 16, 3), geom.V(2, -1, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reach.StopBox(pos, vel, bounds, 200*time.Millisecond)
	}
}

// BenchmarkTTF2Delta measures the full switching predicate against the city
// workspace (12 obstacles).
func BenchmarkTTF2Delta(b *testing.B) {
	ws := geom.CityWorkspace()
	an, err := reach.NewAnalyzer(ws, reach.Bounds{MaxAccel: 5, MaxVel: 3, BrakeDecel: 4}, 0.45, 100*time.Millisecond, 2)
	if err != nil {
		b.Fatal(err)
	}
	pos, vel := geom.V(20, 16, 3), geom.V(2, -1, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = an.TTF2Delta(pos, vel)
	}
}

// BenchmarkExecutorStep measures discrete-event executor throughput on the
// full surveillance stack (events per second of the runtime itself).
func BenchmarkExecutorStep(b *testing.B) {
	cfg := mission.DefaultStackConfig(1)
	cfg.App = mission.AppConfig{Points: []geom.Vec3{geom.V(3, 3, 2), geom.V(46, 46, 2)}}
	st, err := mission.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	exec, err := buildBareExecutor(st)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// buildBareExecutor creates an executor over the stack's system with a
// static drone-state topic (no plant in the loop) — measuring the runtime's
// own event-processing cost.
func buildBareExecutor(st *mission.Stack) (*soter.Executor, error) {
	return soter.NewExecutor(st.System, []soter.Topic{{
		Name:    mission.TopicDroneState,
		Default: plant.State{Pos: geom.V(3, 3, 2), Battery: 1},
	}})
}

// BenchmarkBackwardReachSet measures the grid BRS computation (Level-Set
// Toolbox stand-in) on the city workspace at 1 m resolution.
func BenchmarkBackwardReachSet(b *testing.B) {
	ws := geom.CityWorkspace()
	grid, err := geom.NewGrid(ws, 1.0, 0.45)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reach.NewBackwardReachSet(grid, 3.0); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section V). BenchmarkExperiments runs each experiments.Catalogue entry as
// a sub-benchmark and prints the paper-style rows once per `go test -bench`
// invocation; ns/op measures the cost of regenerating the artifact.
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

// BenchmarkExperiments regenerates every experiment in the catalogue at
// full size with seed 1 — the paper-figure seeds and sizes — printing each
// table once and holding each figure to its headline claim.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Catalogue() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := e.Run(context.Background(), 1, false, 0)
				if err != nil {
					b.Fatal(err)
				}
				report(b, e.Name, out.Text)
				if check := experimentChecks[e.Name]; check != nil {
					check(b, out.Result)
				}
			}
		})
	}
}

// experimentChecks holds each figure's headline claim, keyed by catalogue
// name, against the experiment's typed result.
var experimentChecks = map[string]func(b *testing.B, result any){
	"fig5r": func(b *testing.B, result any) {
		if res := result.(experiments.Fig5RightResult); res.CollidingLaps == 0 {
			b.Fatal("expected the unprotected third-party controller to collide")
		}
	},
	"fig5l": func(b *testing.B, result any) {
		if res := result.(experiments.Fig5LeftResult); res.UnsafeLoops == 0 || res.UnsafeLoops == res.Loops {
			b.Fatalf("expected a mix of safe and unsafe loops, got %d/%d", res.UnsafeLoops, res.Loops)
		}
	},
	"fig6": func(b *testing.B, result any) {
		if res := result.(experiments.Fig6Result); res.Crashed || !res.Reached || res.Disengagements == 0 {
			b.Fatalf("unexpected fig6 outcome: %+v", res)
		}
	},
	"fig12b": func(b *testing.B, result any) {
		if result.(experiments.Fig12bResult).Crashed {
			b.Fatal("RTA-protected surveillance mission crashed")
		}
	},
	"fig12c": func(b *testing.B, result any) {
		if res := result.(experiments.Fig12cResult); res.Crashed || !res.Landed {
			b.Fatalf("battery safety failed: %+v", res)
		}
	},
	"sec5c": func(b *testing.B, result any) {
		if res := result.(experiments.Sec5cResult); res.BuggyColliding == 0 || res.CertColliding != 0 || res.ClosedCrashed {
			b.Fatalf("unexpected sec5c outcome: %+v", res)
		}
	},
	"abl-policy": func(b *testing.B, result any) {
		for _, row := range result.(experiments.AblationPolicyResult).Rows {
			if row.Crashed {
				b.Fatalf("policy %s crashed — the framework clamp must keep every policy safe", row.Policy)
			}
		}
	},
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

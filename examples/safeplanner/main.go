// Command safeplanner reproduces the Section V-C experiment: the
// surveillance application's motion planner is the third-party RRT*
// implementation (standing in for OMPL) with injected bugs, so some
// generated motion plans collide with obstacles. Wrapped in an RTA module
// whose safe controller is the certified A* planner, the plan actually
// delivered downstream never violates φplan.
//
// The program first shows the raw planners side by side on a batch of
// random queries, then runs the full closed-loop stack with the buggy
// planner protected by the RTA module.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/plan"
	"repro/internal/plant"
	"repro/internal/sim"
)

func main() {
	seed := flag.Int64("seed", 3, "experiment seed")
	queries := flag.Int("queries", 40, "random planning queries")
	flag.Parse()
	if err := run(*seed, *queries); err != nil {
		log.Fatal(err)
	}
}

func run(seed int64, queries int) error {
	ws := geom.CityWorkspace()
	const margin = 0.45

	buggyCfg := plan.RRTStarConfig{Margin: margin, Seed: seed, Bug: plan.BugSkipEdgeCheck, BugRate: plan.DefaultBugRate}
	buggy, err := plan.NewRRTStar(ws, buggyCfg)
	if err != nil {
		return err
	}
	astar, err := plan.NewAStar(ws, 1.0, margin)
	if err != nil {
		return err
	}

	fmt.Printf("planning %d random queries in the city workspace (bug: %v, rate %.0f%%)\n\n",
		queries, buggyCfg.Bug, 100*buggyCfg.BugRate)

	rng := rand.New(rand.NewSource(seed))
	var buggyColliding, buggyFailed, astarColliding int
	for i := 0; i < queries; i++ {
		start, ok1 := ws.RandomFreePoint(rng, margin+0.6, 256)
		goal, ok2 := ws.RandomFreePoint(rng, margin+0.6, 256)
		if !ok1 || !ok2 {
			return fmt.Errorf("could not sample free query points")
		}
		start.Z, goal.Z = clamp(start.Z, 1, 10), clamp(goal.Z, 1, 10)

		if p, err := buggy.Plan(start, goal); err != nil {
			buggyFailed++
		} else if plan.FirstUnsafeSegment(p, ws, margin) >= 0 {
			buggyColliding++
		}
		if p, err := astar.Plan(start, goal); err != nil {
			return fmt.Errorf("certified A* failed (should not happen): %w", err)
		} else if plan.FirstUnsafeSegment(p, ws, margin) >= 0 {
			astarColliding++
		}
	}
	fmt.Printf("  third-party RRT* (buggy): %d/%d colliding plans, %d failures\n",
		buggyColliding, queries, buggyFailed)
	fmt.Printf("  certified A* (safe ctrl): %d/%d colliding plans\n\n", astarColliding, queries)

	// Closed loop: the buggy planner wrapped in the RTA module.
	cfg := mission.DefaultStackConfig(seed)
	cfg.PlannerBug = plan.BugSkipEdgeCheck
	cfg.PlannerBugRate = plan.DefaultBugRate
	cfg.App = mission.AppConfig{Random: true}
	st, err := mission.Build(cfg)
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.RunConfig{
		Stack:           st,
		Initial:         plant.State{Pos: geom.V(3, 3, 2), Battery: 1},
		Duration:        2 * time.Minute,
		Seed:            seed,
		CheckInvariants: true,
	})
	if err != nil {
		return err
	}
	m := res.Metrics
	ps := m.Modules["safe-motion-planner"]
	fmt.Printf("closed loop with RTA-protected planner (%v):\n", m.Duration)
	fmt.Printf("  crashed=%v  targets=%d  dist=%.1f m\n", m.Crashed, m.TargetsVisited, m.DistanceFlown)
	fmt.Printf("  planner module: disengagements=%d re-engagements=%d AC-control=%.1f%%\n",
		ps.Disengagements, ps.Reengagements, 100*ps.ACFraction())
	if m.Crashed {
		return fmt.Errorf("crash at %v — φplan protection failed", m.CrashTime)
	}
	fmt.Println("\nφplan held: colliding RRT* plans were caught and replaced by the certified planner.")
	return nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/plan"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Sec5cResult reproduces Section V-C: the buggy third-party RRT* emits
// colliding motion plans; wrapped in an RTA module with the certified A*
// planner as SC, the plan followed by the drone never violates φplan.
type Sec5cResult struct {
	Queries         int
	BuggyColliding  int
	BuggyFailed     int
	CertColliding   int
	ClosedLoopRan   bool
	ClosedCrashed   bool
	ClosedTargets   int
	PlannerSwitches int
	PlannerACFrac   float64
}

// Format prints the Section V-C comparison.
func (r Sec5cResult) Format() string {
	var t table
	t.title("Section V-C: RTA-protected motion planner (buggy RRT* vs certified A*)")
	t.row("planner", "colliding plans", "failures")
	t.row("third-party RRT*", fmt.Sprintf("%d/%d", r.BuggyColliding, r.Queries), fmt.Sprint(r.BuggyFailed))
	t.row("certified A*", fmt.Sprintf("%d/%d", r.CertColliding, r.Queries), "0")
	if r.ClosedLoopRan {
		t.line("closed loop under RTA: crashed=%v targets=%d planner AC→SC switches=%d AC fraction=%s",
			r.ClosedCrashed, r.ClosedTargets, r.PlannerSwitches, fmtPct(r.PlannerACFrac))
	}
	t.line("paper: injected RRT* bugs produce colliding plans; the RTA wrapper ensures the")
	t.line("waypoints followed never collide with an obstacle (φplan).")
	return t.String()
}

// The RRT* defect Section V-C injects: edges skip their collision check at
// this rate.
const (
	sec5cBug     = plan.BugSkipEdgeCheck
	sec5cBugRate = plan.DefaultBugRate
)

// sec5c runs the planner experiment at catalogue seed + 2: 40 open-loop
// plan queries, then a one-minute closed loop of the full stack with the
// buggy planner under RTA protection. Quick mode runs 15 queries and skips
// the closed loop. The outcome's AC fraction is the planner module's.
func sec5c(ctx context.Context, seed int64, quick bool, _ int) (Outcome, error) {
	queries, closedLoop := 40, time.Minute
	if quick {
		queries, closedLoop = 15, 0
	}
	seed += 2
	ws := geom.CityWorkspace()
	const margin = 0.45

	buggy, err := plan.NewRRTStar(ws, plan.RRTStarConfig{Margin: margin, Seed: seed, Bug: sec5cBug, BugRate: sec5cBugRate})
	if err != nil {
		return Outcome{}, err
	}
	astar, err := plan.NewAStar(ws, 1.0, margin)
	if err != nil {
		return Outcome{}, err
	}

	res := Sec5cResult{Queries: queries}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < queries; i++ {
		start, ok1 := ws.RandomFreePoint(rng, margin+0.6, 256)
		goal, ok2 := ws.RandomFreePoint(rng, margin+0.6, 256)
		if !ok1 || !ok2 {
			return Outcome{}, fmt.Errorf("sec5c: could not sample free query points")
		}
		start.Z, goal.Z = clampF(start.Z, 1, 10), clampF(goal.Z, 1, 10)
		if p, err := buggy.Plan(start, goal); err != nil {
			res.BuggyFailed++
		} else if plan.FirstUnsafeSegment(p, ws, margin) >= 0 {
			res.BuggyColliding++
		}
		p, err := astar.Plan(start, goal)
		if err != nil {
			return Outcome{}, fmt.Errorf("sec5c: certified planner failed: %w", err)
		}
		if plan.FirstUnsafeSegment(p, ws, margin) >= 0 {
			res.CertColliding++
		}
	}

	if closedLoop > 0 {
		spec := scenario.MustGet("planner-bug-gauntlet").With(scenario.Override{Apply: func(sp *scenario.Spec) {
			sp.PlannerBug = sec5cBug
			sp.PlannerBugRate = sec5cBugRate
			sp.Duration = closedLoop
		}})
		rcfg, err := spec.Build(seed)
		if err != nil {
			return Outcome{}, fmt.Errorf("sec5c closed loop: %w", err)
		}
		rcfg.Context = ctx
		out, err := sim.Run(rcfg)
		if err != nil {
			return Outcome{}, fmt.Errorf("sec5c closed loop: %w", err)
		}
		res.ClosedLoopRan = true
		res.ClosedCrashed = out.Metrics.Crashed
		res.ClosedTargets = out.Metrics.TargetsVisited
		if s, ok := out.Metrics.Modules["safe-motion-planner"]; ok {
			res.PlannerSwitches = s.Disengagements
			res.PlannerACFrac = s.ACFraction()
		}
	}
	return Outcome{Text: res.Format(), Result: res}, nil
}

// Sec5dRow is one scheduling configuration of the endurance study.
type Sec5dRow struct {
	Scheduling     string
	SimHours       float64
	DistanceKm     float64
	Disengagements int
	Crashes        int
	ACFraction     float64
	DroppedFirings int
}

// Sec5dResult reproduces the Section V-D endurance study: 104 hours of
// software-in-the-loop simulation, ~1505 km flown, 109 disengagements where
// an SC took over and avoided a failure, 34 crashes all traced to the SC not
// being scheduled in time (absent on an RTOS), and the AC in control > 96%
// of the time.
type Sec5dResult struct {
	Rows []Sec5dRow
}

// Format prints the Section V-D endurance table.
func (r Sec5dResult) Format() string {
	var t table
	t.title("Section V-D: endurance study (randomised surveillance, scaled hours)")
	t.row("scheduling", "sim hours", "distance", "diseng.", "crashes", "AC fraction")
	for _, row := range r.Rows {
		t.row(row.Scheduling, fmt.Sprintf("%.2f h", row.SimHours),
			fmt.Sprintf("%.1f km", row.DistanceKm), fmt.Sprint(row.Disengagements),
			fmt.Sprint(row.Crashes), fmtPct(row.ACFraction))
	}
	t.line("paper (104 h): 1505 km, 109 disengagements, 34 crashes (all: SC not scheduled")
	t.line("in time — expected to vanish on an RTOS), AC in control > 96%% of the time.")
	return t.String()
}

// sec5dJitterProb is the per-firing outage-start probability of the
// best-effort-scheduling configuration.
const sec5dJitterProb = 0.006

// sec5d runs the endurance study under RTOS-like (no jitter) and
// best-effort (burst outage) scheduling: 0.5 simulated hours per
// configuration in 5-minute segments, 0.1 hours in 3-minute segments in quick
// mode, seeded from catalogue seed + 12. The independent mission segments of
// each scheduling configuration are dispatched through the fleet engine,
// bounded at workers, so the scaled hours simulate in parallel. The outcome's
// crashes are summed over both configurations, its AC fraction is the
// best-effort row's.
func sec5d(ctx context.Context, seed int64, quick bool, workers int) (Outcome, error) {
	simHours, segmentMinutes := 0.5, 5
	if quick {
		simHours, segmentMinutes = 0.1, 3
	}
	// The endurance segments are the registered random-endurance scenario
	// (randomly drawn targets, one sporadic AC failure per segment — the
	// paper's rare third-party failures, 109 disengagements in 104 hours);
	// the two scheduling configurations are jitter overrides of it.
	var res Sec5dResult
	for _, sched := range []struct {
		name   string
		jitter float64
	}{
		{"best-effort OS", sec5dJitterProb},
		{"RTOS (no jitter)", 0},
	} {
		row := Sec5dRow{Scheduling: sched.name}
		segments := int(simHours*60.0/float64(segmentMinutes) + 0.5)
		jitter := sched.jitter
		missions := fleet.ScenarioGrid(fleet.GridConfig{
			Specs: []scenario.Spec{scenario.MustGet("random-endurance")},
			Overrides: []scenario.Override{{Name: sched.name, Apply: func(sp *scenario.Spec) {
				sp.JitterProb = jitter
				sp.JitterSCOnly = true
			}}},
			Seeds:    fleet.Seeds(seed+12, segments),
			Duration: time.Duration(segmentMinutes) * time.Minute,
		})
		rep := fleet.Run(ctx, missions, fleet.Options{Workers: workers})
		if err := rep.FirstErr(); err != nil {
			return Outcome{}, fmt.Errorf("sec5d: %w", err)
		}
		for _, out := range rep.Results {
			m := out.Metrics
			row.SimHours += m.Duration.Hours()
			row.DistanceKm += m.DistanceFlown / 1000
			row.Disengagements += m.TotalDisengagements()
			row.DroppedFirings += m.DroppedFirings
			if m.Crashed {
				row.Crashes++
			}
		}
		if s := rep.ModuleStats("safe-motion-primitive"); s.ACTime+s.SCTime > 0 {
			row.ACFraction = s.ACFraction()
		}
		res.Rows = append(res.Rows, row)
	}
	return Outcome{Text: res.Format(), Result: res}, nil
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

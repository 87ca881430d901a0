package falsify

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/plan"
	"repro/internal/scenario"
)

// mutator is one named mutation operator over the search space. Operators
// draw from the engine's campaign RNG, so a mutation sequence is a pure
// function of the campaign seed. Values are rounded to short decimals so
// corpus files and counterexample JSON stay humane.
type mutator struct {
	name string
	// ok reports whether the operator applies to this base (e.g. workspace
	// swaps only make sense for random-target scenarios).
	ok func(base scenario.Spec) bool
	// apply mutates one knob of p.
	apply func(p *scenario.Delta, pool []string, rng *rand.Rand)
}

// faultDirs is the mutation pool of fault thrust directions.
var faultDirs = []geom.Vec3{
	geom.V(1, 0, 0), geom.V(-1, 0, 0), geom.V(0, 1, 0),
	geom.V(0, -1, 0), geom.V(0, 0, -1), geom.V(0.7, 0.7, 0),
}

// plannerBugs is the mutation pool of injectable RRT* defects.
var plannerBugs = []string{
	plan.BugSkipEdgeCheck.String(), plan.BugUncheckedShortcut.String(), plan.BugStaleObstacles.String(),
}

// motionDeltas is the mutation pool of DM periods Δ.
var motionDeltas = []time.Duration{
	40 * time.Millisecond, 60 * time.Millisecond, 80 * time.Millisecond,
	100 * time.Millisecond, 140 * time.Millisecond, 200 * time.Millisecond,
	250 * time.Millisecond,
}

// mutators is the operator catalog. Order matters: operator choice indexes
// into this slice from the campaign RNG, so reordering changes campaigns
// (like reordering a policy registry would change a sweep).
var mutators = []mutator{
	{name: "policy", apply: func(p *scenario.Delta, pool []string, rng *rand.Rand) {
		p.Policy = pool[rng.Intn(len(pool))]
	}},
	{name: "fault", apply: func(p *scenario.Delta, _ []string, rng *rand.Rand) {
		p.FaultFirst = time.Duration(200+rng.Intn(1800)) * time.Millisecond
		p.FaultEvery = time.Duration(2+rng.Intn(8)) * time.Second
		p.FaultLen = time.Duration(500+rng.Intn(2500)) * time.Millisecond
		d := faultDirs[rng.Intn(len(faultDirs))]
		p.FaultDir = &d
	}},
	{name: "jitter", apply: func(p *scenario.Delta, _ []string, rng *rand.Rand) {
		prob := round4(0.005 + 0.045*rng.Float64())
		scOnly := rng.Intn(2) == 0
		p.JitterProb, p.JitterSCOnly = &prob, &scOnly
	}},
	{name: "planner-bug", apply: func(p *scenario.Delta, _ []string, rng *rand.Rand) {
		p.PlannerBug = plannerBugs[rng.Intn(len(plannerBugs))]
		rate := round2(0.1 + 0.9*rng.Float64())
		p.PlannerBugRate = &rate
	}},
	{name: "delta", apply: func(p *scenario.Delta, _ []string, rng *rand.Rand) {
		d := motionDeltas[rng.Intn(len(motionDeltas))]
		p.MotionDelta = &d
	}},
	{name: "hysteresis", apply: func(p *scenario.Delta, _ []string, rng *rand.Rand) {
		h := round1(1.0 + 4.0*rng.Float64())
		p.Hysteresis = &h
	}},
	{name: "plan-margin", apply: func(p *scenario.Delta, _ []string, rng *rand.Rand) {
		m := round2(0.4 + 1.2*rng.Float64())
		p.PlanMargin = &m
	}},
	{name: "battery", apply: func(p *scenario.Delta, _ []string, rng *rand.Rand) {
		charge := round2(0.2 + 0.8*rng.Float64())
		drain := round1(1 + 39*rng.Float64())
		p.InitialBattery, p.DrainMultiple = &charge, &drain
	}},
	{
		name: "workspace",
		ok:   func(base scenario.Spec) bool { return base.RandomTargets },
		apply: func(p *scenario.Delta, _ []string, rng *rand.Rand) {
			fams := scenario.WorkspaceFamilies()
			p.Workspace = fams[rng.Intn(len(fams))]
		},
	},
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }
func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }

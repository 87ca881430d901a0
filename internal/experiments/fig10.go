package experiments

import (
	"context"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/reach"
)

// Fig10Result reports the regions of operation of Figure 10 (fractions of
// sampled kinematic states per region) and cross-validates the analytic
// reach sets against the grid backward-reachability computation standing in
// for the Level-Set Toolbox (the yellow/green regions of Figure 12b).
type Fig10Result struct {
	Samples   int
	Fractions map[reach.Region]float64
	// GridEscapableFrac is the fraction of free cells from which the
	// velocity-bounded plant can leave φsafe within 2Δ, per the grid BRS.
	GridEscapableFrac float64
	// Agreement is the fraction of zero-velocity samples where the analytic
	// ttf2Δ check and the grid BRS agree.
	Agreement float64
}

// Format prints the Figure 10 / 12b region statistics.
func (r Fig10Result) Format() string {
	var t table
	t.title("Figure 10: regions of operation (state-space fractions, city workspace)")
	t.row("region", "fraction")
	for _, reg := range []reach.Region{reach.RegionUnsafe, reach.RegionSafe, reach.RegionRecover, reach.RegionSaferCore} {
		t.row(reg.String(), fmtPct(r.Fractions[reg]))
	}
	t.line("grid BRS (Level-Set stand-in): %.1f%% of free cells can escape φsafe within 2Δ", 100*r.GridEscapableFrac)
	t.line("analytic-vs-grid agreement on zero-velocity states: %s", fmtPct(r.Agreement))
	return t.String()
}

// fig10 samples the state space and classifies the regions: 4000 samples,
// 1000 in quick mode, at catalogue seed + 2.
func fig10(_ context.Context, seed int64, quick bool, _ int) (Outcome, error) {
	samples := 4000
	if quick {
		samples = 1000
	}
	seed += 2
	// The motion module of the evaluation's stack, on the city workspace.
	cfg := mission.DefaultStackConfig(seed)
	ws := geom.CityWorkspace()
	cfg.Workspace = ws
	an, err := mission.MotionAnalyzer(cfg)
	if err != nil {
		return Outcome{}, err
	}
	bounds := mission.ReachBounds(cfg.PlantParams)
	delta := cfg.MotionDelta

	rng := rand.New(rand.NewSource(seed))
	counts := make(map[reach.Region]int)
	b := ws.Bounds()
	size := b.Size()
	for i := 0; i < samples; i++ {
		pos := geom.V(
			b.Min.X+rng.Float64()*size.X,
			b.Min.Y+rng.Float64()*size.Y,
			b.Min.Z+rng.Float64()*size.Z,
		)
		vel := geom.V(
			(rng.Float64()*2-1)*bounds.MaxVel,
			(rng.Float64()*2-1)*bounds.MaxVel,
			(rng.Float64()*2-1)*bounds.MaxVel,
		)
		counts[an.Classify(pos, vel)]++
	}
	res := Fig10Result{Samples: samples, Fractions: make(map[reach.Region]float64)}
	for reg, n := range counts {
		res.Fractions[reg] = float64(n) / float64(samples)
	}

	// Grid backward reachable set over the physical workspace, at a
	// resolution fine enough to resolve the thin 2Δ escape band.
	grid, err := geom.NewGrid(ws, 0.4, cfg.Margin)
	if err != nil {
		return Outcome{}, err
	}
	brs, err := reach.NewBackwardReachSet(grid, bounds.MaxVel)
	if err != nil {
		return Outcome{}, err
	}
	res.GridEscapableFrac = brs.FractionEscapable(2 * delta)

	// Cross-validation on zero-velocity states: the analytic check reduces
	// to "reach box over 2Δ plus braking clears the obstacles"; the grid
	// check to "time-to-unsafe > 2Δ at vmax". Both over-approximate
	// differently, so we report agreement rather than require equality.
	agree, total := 0, 0
	for i := 0; i < samples/2; i++ {
		pos, ok := ws.RandomFreePoint(rng, cfg.Margin, 128)
		if !ok {
			continue
		}
		total++
		analytic := an.TTF2Delta(pos, geom.Vec3{})
		gridSays := brs.CanEscapeWithin(pos, 2*delta)
		if analytic == gridSays {
			agree++
		}
	}
	if total > 0 {
		res.Agreement = float64(agree) / float64(total)
	}
	return Outcome{Text: res.Format(), Result: res}, nil
}

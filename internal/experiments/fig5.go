package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/controller"
	"repro/internal/geom"
	"repro/internal/plant"
	"repro/internal/scenario"
)

// Fig5RightResult reports the PX4-style third-party controller experiment:
// the drone repeatedly visits g1..g4; during high-speed maneuvers the
// reduced control leads to overshoot and trajectories that collide with the
// obstacles (red regions) near the corners.
type Fig5RightResult struct {
	Laps          int
	CollidingLaps int
	MaxOvershoot  float64 // metres beyond the waypoint square
	AvgLapTime    time.Duration
}

// Format prints the Figure 5 (right) series.
func (r Fig5RightResult) Format() string {
	var t table
	t.title("Figure 5 (right): third-party (PX4-style) controller, g1..g4 tour, unprotected")
	t.row("laps", "colliding laps", "max overshoot", "avg lap time")
	t.row(fmt.Sprint(r.Laps), fmt.Sprint(r.CollidingLaps), fmt.Sprintf("%.2f m", r.MaxOvershoot), fmtDur(r.AvgLapTime))
	t.line("paper: the time-optimised low-level controller overshoots during high-speed")
	t.line("maneuvers and its trajectories collide with the red regions near the corners.")
	return t.String()
}

// fig5Workspace resolves the g1..g4 corner-hazard layout shared with the
// corner-hazard-tour scenario: the workspace lives in internal/geom and the
// tour in the scenario catalog, so the unprotected Figure 5 run and the
// protected Figure 12a comparison fly exactly the same geometry.
func fig5Workspace() (*geom.Workspace, []geom.Vec3) {
	return geom.CornerHazardWorkspace(), scenario.CornerTour()
}

// trackTour runs a bare controller (no RTA) around the waypoint tour,
// returning per-lap collision flags, the max overshoot beyond the square
// and the average lap time. Cancelling the context stops between laps;
// collided is truncated to the laps that actually ran.
func trackTour(ctx context.Context, ctrl controller.Controller, ws *geom.Workspace, tour []geom.Vec3, laps int, seed int64) (collided []bool, maxOvershoot float64, avgLap time.Duration) {
	params := plant.DefaultParams()
	drone, err := plant.NewDrone(params, seed)
	if err != nil {
		panic(err)
	}
	state := plant.State{Pos: tour[len(tour)-1], Battery: 1}
	const dt = 20 * time.Millisecond
	const tolerance = 0.8
	collided = make([]bool, laps)
	var totalLapTime time.Duration

	now := time.Duration(0)
	for lap := 0; lap < laps; lap++ {
		if ctx.Err() != nil {
			collided = collided[:lap]
			laps = lap
			break
		}
		lapStart := now
		for _, wp := range tour {
			deadline := now + 60*time.Second
			for state.Pos.Dist(wp) > tolerance && now < deadline {
				u := ctrl.Control(now, state.Pos, state.Vel, wp)
				state = drone.Step(state, u, dt)
				now += dt
				if !ws.Free(state.Pos) {
					collided[lap] = true
				}
				if ov := overshootBeyond(state.Pos, tour); ov > maxOvershoot {
					maxOvershoot = ov
				}
			}
		}
		totalLapTime += now - lapStart
	}
	if laps > 0 {
		avgLap = totalLapTime / time.Duration(laps)
	}
	return collided, maxOvershoot, avgLap
}

// overshootBeyond measures how far p lies outside the bounding box of the
// tour waypoints.
func overshootBeyond(p geom.Vec3, tour []geom.Vec3) float64 {
	box := geom.AABB{Min: tour[0], Max: tour[0]}
	for _, w := range tour[1:] {
		box = box.Union(geom.AABB{Min: w, Max: w})
	}
	return box.Distance(geom.V(p.X, p.Y, box.Center().Z))
}

// fig5Right runs the third-party-controller experiment: 10 laps of the
// tour, 5 in quick mode, at the catalogue seed. A cancelled context returns
// the laps completed so far together with the context's error.
func fig5Right(ctx context.Context, seed int64, quick bool, _ int) (Outcome, error) {
	laps := 10
	if quick {
		laps = 5
	}
	ws, tour := fig5Workspace()
	params := plant.DefaultParams()
	ac := controller.NewAggressive(controller.Limits{MaxAccel: params.MaxAccel, MaxVel: params.MaxVel})
	collided, overshoot, avgLap := trackTour(ctx, ac, ws, tour, laps, seed)
	res := Fig5RightResult{Laps: len(collided), MaxOvershoot: overshoot, AvgLapTime: avgLap}
	for _, c := range collided {
		if c {
			res.CollidingLaps++
		}
	}
	return Outcome{Text: res.Format(), Result: res}, ctx.Err()
}

// Fig5LeftResult reports the data-driven controller experiment: tracking a
// figure-eight reference, most loops follow closely (green) while some
// deviate dangerously (red).
type Fig5LeftResult struct {
	Loops        int
	UnsafeLoops  int
	MaxDeviation float64
	AvgDeviation float64
	Threshold    float64
}

// Format prints the Figure 5 (left) series.
func (r Fig5LeftResult) Format() string {
	var t table
	t.title("Figure 5 (left): data-driven controller on a figure-eight, unprotected")
	t.row("loops", "unsafe loops", "max deviation", "avg deviation", "threshold")
	t.row(fmt.Sprint(r.Loops), fmt.Sprint(r.UnsafeLoops),
		fmt.Sprintf("%.2f m", r.MaxDeviation), fmt.Sprintf("%.2f m", r.AvgDeviation),
		fmt.Sprintf("%.2f m", r.Threshold))
	t.line("paper: green loops closely follow the reference; red loops deviate dangerously.")
	return t.String()
}

// fig5Loop is the verdict of one independent figure-eight loop.
type fig5Loop struct {
	max      float64
	devSum   float64
	devCount int
}

// fig5Left runs the learned-controller figure-eight experiment: 12 loops at
// both sizes, at catalogue seed + 4. Every loop flies the eight at a
// different location with its own drone and noise stream; the loops run in
// order (the whole figure takes about 0.2 s). A cancelled context returns
// the loops completed so far together with the context's error.
func fig5Left(ctx context.Context, seed int64, _ bool, _ int) (Outcome, error) {
	const laps = 12
	seed += 4
	params := plant.DefaultParams()
	// Realistic state estimation noise: loop-to-loop variation decides how
	// deeply the trajectory cuts into the policy's mis-trained cells, so
	// some loops stay green and some go red, as in the figure.
	params.SensorNoise = 0.12
	limits := controller.Limits{MaxAccel: params.MaxAccel, MaxVel: params.MaxVel}
	// The learned policy is stateless (its per-cell gains are derived by
	// hashing the observed state), so one instance serves every loop.
	// Figure 5 (left) shows most loops green and some red: at this
	// corrupted-cell fraction about a third of the loops go red (36% over
	// catalogue seeds 1–60).
	learned := controller.NewLearned(limits, 0.08, seed)

	// Figure-eight reference: a Lissajous curve in the XY plane, paced so
	// the reference speed stays well under the velocity cap.
	const (
		period       = 40 * time.Second
		ax           = 12.0
		ay           = 6.0
		curveSamples = 512
		dt           = 20 * time.Millisecond
	)
	// Each loop flies the eight over a different block (as when a mission
	// surveys a district): whether the path crosses the policy's mis-trained
	// state-space cells decides its colour. Centers spread ±24 m, six of the
	// policy's 4 m cells, so loops cross mostly different cells and each is
	// an independent draw; loops within one cell of each other would share
	// one verdict, and the seed alone would colour the whole figure.
	const spread = 24.0
	rng := rand.New(rand.NewSource(seed + 42))
	center := geom.V(40, 40, 3)
	centers := make([]geom.Vec3, laps)
	for i := range centers {
		centers[i] = center.Add(geom.V((rng.Float64()*2-1)*spread, (rng.Float64()*2-1)*spread, 0))
	}

	var loops []fig5Loop
	var err error
	for loop, loopCenter := range centers {
		if err = ctx.Err(); err != nil {
			break
		}
		ref := func(t time.Duration) geom.Vec3 {
			phase := 2 * math.Pi * float64(t) / float64(period)
			return loopCenter.Add(geom.V(ax*math.Sin(phase), ay*math.Sin(2*phase), 0))
		}
		// Pre-sample the curve for cross-track error: the deviation of a
		// loop is the distance to the nearest point of the reference eight,
		// not the lag behind the moving reference.
		curve := make([]geom.Vec3, curveSamples)
		for i := range curve {
			curve[i] = ref(period * time.Duration(i) / curveSamples)
		}
		crossTrack := func(p geom.Vec3) float64 {
			best := math.Inf(1)
			for _, c := range curve {
				if d := p.Dist(c); d < best {
					best = d
				}
			}
			return best
		}
		// A per-loop drone isolates the sensor-noise stream.
		drone, err := plant.NewDrone(params, seed+int64(loop)*131)
		if err != nil {
			return Outcome{}, err
		}
		state := plant.State{Pos: ref(0), Battery: 1}
		var out fig5Loop
		start := time.Duration(loop) * period
		for t := start; t < start+period; t += dt {
			// Track a point slightly ahead on the reference, from the noisy
			// state estimate.
			target := ref(t + 500*time.Millisecond)
			obs := drone.Observe(state)
			u := learned.Control(t, obs.Pos, obs.Vel, target)
			state = drone.Step(state, u, dt)
			dev := crossTrack(state.Pos)
			out.devSum += dev
			out.devCount++
			if dev > out.max {
				out.max = dev
			}
		}
		loops = append(loops, out)
	}

	res := Fig5LeftResult{Threshold: 0.9}
	var devSum float64
	var devCount int
	for _, l := range loops {
		res.Loops++
		devSum += l.devSum
		devCount += l.devCount
		if l.max > res.Threshold {
			res.UnsafeLoops++
		}
		if l.max > res.MaxDeviation {
			res.MaxDeviation = l.max
		}
	}
	if devCount > 0 {
		res.AvgDeviation = devSum / float64(devCount)
	}
	return Outcome{Text: res.Format(), Result: res}, err
}

package mission

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/pubsub"
)

// appState is the local state of the surveillance application node.
type appState struct {
	points []geom.Vec3
	idx    int
	visits int
	rng    *rand.Rand
	random bool
}

// AppConfig is the surveillance application's tour: a fixed list of points
// or random targets. The application node implements the application-layer
// protocol: every surveillance point must be visited infinitely often
// (Section II-A). Build supplies the rest — the workspace and margin random
// targets are drawn and validated with, and the seed that draws them.
type AppConfig struct {
	// Points is the fixed tour of surveillance locations. With Random set,
	// Points seeds nothing and fresh random targets are drawn instead
	// (Section V-D's randomly generated surveillance points).
	Points []geom.Vec3
	// Random draws each next target uniformly from the free space.
	Random bool
}

// The application node's fixed parameters.
const (
	// appPeriod is the application node's period.
	appPeriod = 200 * time.Millisecond
	// appTolerance is the arrival distance at which the next target is
	// issued.
	appTolerance = 1.0
)

// newAppNode builds the surveillance application node. It subscribes to the
// drone state and publishes the next target location for the drone; random
// targets are drawn from ws, clear of obstacles by margin, seeded by seed.
func newAppNode(cfg AppConfig, ws *geom.Workspace, margin float64, seed int64) (*node.Node, error) {
	if !cfg.Random && len(cfg.Points) == 0 {
		return nil, fmt.Errorf("surveillance app: no points and Random not set")
	}
	if cfg.Random && ws == nil {
		return nil, fmt.Errorf("surveillance app: Random requires a workspace")
	}

	points := make([]geom.Vec3, len(cfg.Points))
	copy(points, cfg.Points)

	init := func() node.State {
		return &appState{
			points: points,
			rng:    rand.New(rand.NewSource(seed)),
			random: cfg.Random,
		}
	}

	out := make(pubsub.Valuation, 1) // refilled every firing (node.StepFunc)
	step := func(st node.State, in pubsub.Valuation) (node.State, pubsub.Valuation, error) {
		s, ok := st.(*appState)
		if !ok {
			return nil, nil, fmt.Errorf("surveillance app: bad state type %T", st)
		}
		ds, haveState := droneState(in)
		next := *s // shallow copy; points slice is shared read-only
		if s.random && len(next.points) == 0 {
			p, found := ws.RandomFreePoint(s.rng, margin+2.0, 512)
			if !found {
				return nil, nil, fmt.Errorf("surveillance app: no free random target")
			}
			p.Z = clampZ(p.Z, 1.0, ws.Bounds().Max.Z-1.0)
			next.points = []geom.Vec3{p}
			next.idx = 0
		}
		if len(next.points) == 0 {
			return &next, nil, nil
		}
		target := next.points[next.idx%len(next.points)]
		if haveState && !ds.Landed && ds.Pos.Dist(target) <= appTolerance {
			next.visits++
			if s.random {
				p, found := ws.RandomFreePoint(s.rng, margin+2.0, 512)
				if !found {
					return nil, nil, fmt.Errorf("surveillance app: no free random target")
				}
				p.Z = clampZ(p.Z, 1.0, ws.Bounds().Max.Z-1.0)
				next.points = []geom.Vec3{p}
				next.idx = 0
				target = p
			} else {
				next.idx = (next.idx + 1) % len(next.points)
				target = next.points[next.idx]
			}
		}
		out[TopicMissionTarget] = target
		return &next, out, nil
	}

	return node.New(
		"surveillance",
		appPeriod,
		[]pubsub.TopicName{TopicDroneState},
		[]pubsub.TopicName{TopicMissionTarget},
		step,
		node.WithInit(init),
	)
}

// VisitsOf returns the number of surveillance targets visited, given the
// app node's local state (for metrics collection).
func VisitsOf(st node.State) (int, bool) {
	s, ok := st.(*appState)
	if !ok {
		return 0, false
	}
	return s.visits, true
}

func clampZ(z, lo, hi float64) float64 {
	if z < lo {
		return lo
	}
	if z > hi {
		return hi
	}
	return z
}

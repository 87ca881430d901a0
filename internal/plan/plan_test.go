package plan

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
)

func planWorkspace(t *testing.T) *geom.Workspace {
	t.Helper()
	ws, err := geom.NewWorkspace(
		geom.Box(geom.V(0, 0, 0), geom.V(30, 30, 10)),
		[]geom.AABB{
			geom.Box(geom.V(10, 0, 0), geom.V(12, 20, 10)),  // wall with a gap at the top (y>20)
			geom.Box(geom.V(18, 10, 0), geom.V(20, 30, 10)), // second wall, gap at the bottom
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func TestPlanClone(t *testing.T) {
	p := Plan{geom.V(1, 1, 1)}
	c := p.Clone()
	c[0] = geom.V(9, 9, 9)
	if p[0] != geom.V(1, 1, 1) {
		t.Error("Clone shares storage")
	}
}

func TestValidate(t *testing.T) {
	ws := planWorkspace(t)
	start, goal := geom.V(2, 2, 2), geom.V(28, 2, 2)
	good := Plan{start, geom.V(5, 25, 2), geom.V(15, 25, 2), geom.V(15, 5, 2), goal}
	if err := Validate(good, ws, 0.4, start, goal, 0.5); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
	tests := []struct {
		name string
		p    Plan
	}{
		{"empty", nil},
		{"colliding segment", Plan{start, goal}},
		{"wrong start", Plan{geom.V(9, 9, 9), goal}},
		{"wrong goal", Plan{start, geom.V(1, 1, 1)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := Validate(tt.p, ws, 0.4, start, goal, 0.5); err == nil {
				t.Error("invalid plan accepted")
			}
		})
	}
	// Single-waypoint plan with coincident start/goal.
	if err := Validate(Plan{start}, ws, 0.4, start, start, 0.5); err != nil {
		t.Errorf("single waypoint plan rejected: %v", err)
	}
}

func TestFirstUnsafeSegment(t *testing.T) {
	ws := planWorkspace(t)
	p := Plan{geom.V(2, 2, 2), geom.V(8, 2, 2), geom.V(15, 2, 2), geom.V(16, 2, 2)}
	// Segment 1 (8,2)→(15,2) crosses the first wall.
	if got := FirstUnsafeSegment(p, ws, 0.4); got != 1 {
		t.Errorf("FirstUnsafeSegment = %d, want 1", got)
	}
	safe := Plan{geom.V(2, 2, 2), geom.V(8, 2, 2)}
	if got := FirstUnsafeSegment(safe, ws, 0.4); got != -1 {
		t.Errorf("safe plan FirstUnsafeSegment = %d", got)
	}
	// Single colliding waypoint.
	if got := FirstUnsafeSegment(Plan{geom.V(11, 5, 2)}, ws, 0); got != 0 {
		t.Errorf("colliding waypoint = %d", got)
	}
}

func TestShortcut(t *testing.T) {
	ws := planWorkspace(t)
	// A dog-leg in open space collapses to the direct segment.
	p := Plan{geom.V(2, 25, 2), geom.V(5, 28, 2), geom.V(8, 25, 2)}
	sc := Shortcut(p, ws, 0.4)
	if len(sc) != 2 {
		t.Errorf("Shortcut = %v, want direct", sc)
	}
	// A detour around the wall must not be straightened through it.
	detour := Plan{geom.V(2, 2, 2), geom.V(5, 25, 2), geom.V(15, 25, 2), geom.V(15, 5, 2)}
	sc = Shortcut(detour, ws, 0.4)
	if FirstUnsafeSegment(sc, ws, 0.4) >= 0 {
		t.Errorf("Shortcut produced a colliding plan: %v", sc)
	}
	if planLength(sc) > planLength(detour)+1e-9 {
		t.Errorf("Shortcut lengthened the plan: %v > %v", planLength(sc), planLength(detour))
	}
}

// planLength returns the total Euclidean length of a plan.
func planLength(p Plan) float64 {
	total := 0.0
	for i := 0; i+1 < len(p); i++ {
		total += p[i].Dist(p[i+1])
	}
	return total
}

func TestAStarFindsSafePlans(t *testing.T) {
	ws := planWorkspace(t)
	astar, err := NewAStar(ws, 1.0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 25; i++ {
		start, ok1 := ws.RandomFreePoint(rng, 1.0, 256)
		goal, ok2 := ws.RandomFreePoint(rng, 1.0, 256)
		if !ok1 || !ok2 {
			t.Fatal("sampling failed")
		}
		p, err := astar.Plan(start, goal)
		if err != nil {
			t.Fatalf("query %d %v→%v: %v", i, start, goal, err)
		}
		if err := Validate(p, ws, 0.4, start, goal, 1e-6); err != nil {
			t.Fatalf("query %d produced invalid plan: %v", i, err)
		}
	}
}

func TestAStarNoPath(t *testing.T) {
	// A wall sealing the workspace in two: no path exists.
	ws, err := geom.NewWorkspace(
		geom.Box(geom.V(0, 0, 0), geom.V(20, 20, 5)),
		[]geom.AABB{geom.Box(geom.V(9, 0, 0), geom.V(11, 20, 5))},
	)
	if err != nil {
		t.Fatal(err)
	}
	astar, err := NewAStar(ws, 1.0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = astar.Plan(geom.V(2, 10, 2), geom.V(18, 10, 2))
	if !errors.Is(err, ErrNoPath) {
		t.Errorf("error = %v, want ErrNoPath", err)
	}
}

func TestAStarStartNearObstacle(t *testing.T) {
	ws := planWorkspace(t)
	astar, err := NewAStar(ws, 1.0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// A start point hugging the wall (its grid cell is inflated-occupied)
	// still plans via the nearest free cell.
	start := geom.V(9.3, 5, 2)
	if _, err := astar.Plan(start, geom.V(2, 25, 2)); err != nil {
		t.Errorf("near-obstacle start failed: %v", err)
	}
}

func TestRRTStarCorrectModeIsSafe(t *testing.T) {
	ws := planWorkspace(t)
	r, err := NewRRTStar(ws, RRTStarConfig{Margin: 0.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	planned := 0
	for i := 0; i < 15; i++ {
		start, ok1 := ws.RandomFreePoint(rng, 1.0, 256)
		goal, ok2 := ws.RandomFreePoint(rng, 1.0, 256)
		if !ok1 || !ok2 {
			t.Fatal("sampling failed")
		}
		p, err := r.Plan(start, goal)
		if errors.Is(err, ErrNoPath) {
			continue // sampling planners may miss within the budget
		}
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		planned++
		if idx := FirstUnsafeSegment(p, ws, 0.4); idx >= 0 {
			t.Fatalf("correct RRT* produced colliding plan (segment %d): %v", idx, p)
		}
	}
	if planned == 0 {
		t.Fatal("RRT* solved no queries at all")
	}
}

func TestRRTStarBugsProduceCollidingPlans(t *testing.T) {
	ws := planWorkspace(t)
	rng := rand.New(rand.NewSource(5))
	for _, bug := range []Bug{BugSkipEdgeCheck, BugUncheckedShortcut, BugStaleObstacles} {
		t.Run(bug.String(), func(t *testing.T) {
			r, err := NewRRTStar(ws, RRTStarConfig{Margin: 0.4, Seed: 6, Bug: bug, BugRate: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			colliding := 0
			for i := 0; i < 12; i++ {
				start, _ := ws.RandomFreePoint(rng, 1.0, 256)
				goal, _ := ws.RandomFreePoint(rng, 1.0, 256)
				p, err := r.Plan(start, goal)
				if err != nil {
					continue
				}
				if FirstUnsafeSegment(p, ws, 0.4) >= 0 {
					colliding++
				}
			}
			if colliding == 0 {
				t.Errorf("bug %v produced no colliding plans in 12 queries", bug)
			}
		})
	}
}

func TestRRTStarDeterministicPerSeed(t *testing.T) {
	ws := planWorkspace(t)
	mk := func(seed int64) Plan {
		r, err := NewRRTStar(ws, RRTStarConfig{Margin: 0.4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.Plan(geom.V(2, 2, 2), geom.V(28, 28, 2))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(7), mk(7)
	if len(a) != len(b) {
		t.Fatalf("same seed, different plans: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different plans at %d", i)
		}
	}
}

func TestBugString(t *testing.T) {
	if BugNone.String() != "none" || Bug(99).String() != "Bug(99)" {
		t.Error("Bug.String wrong")
	}
}

// TestParseBugRoundTrip: ParseBug inverts Bug.String for every bug, and an
// unknown name is refused with the valid names listed.
func TestParseBugRoundTrip(t *testing.T) {
	for b := range Bug(len(bugNames)) {
		if got, err := ParseBug(b.String()); got != b || err != nil {
			t.Errorf("ParseBug(%q) = %v, %v; want %v", b.String(), got, err, b)
		}
	}
	_, err := ParseBug("Bug(99)")
	if err == nil {
		t.Fatal("unknown bug name accepted")
	}
	for _, name := range bugNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

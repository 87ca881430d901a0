package reach

import (
	"math"
	"testing"
	"time"

	"repro/internal/geom"
)

func brsFixture(t *testing.T) (*BackwardReachSet, *geom.Workspace) {
	t.Helper()
	ws, err := geom.NewWorkspace(
		geom.Box(geom.V(0, 0, 0), geom.V(20, 20, 4)),
		[]geom.AABB{geom.Box(geom.V(8, 8, 0), geom.V(12, 12, 4))},
	)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := geom.NewGrid(ws, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	brs, err := NewBackwardReachSet(grid, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	return brs, ws
}

func TestNewBackwardReachSetValidation(t *testing.T) {
	if _, err := NewBackwardReachSet(nil, 1); err == nil {
		t.Error("nil grid accepted")
	}
	ws, err := geom.NewWorkspace(geom.Box(geom.V(0, 0, 0), geom.V(5, 5, 5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := geom.NewGrid(ws, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBackwardReachSet(grid, 0); err == nil {
		t.Error("zero vmax accepted")
	}
}

func TestTimeToUnsafeBasics(t *testing.T) {
	brs, _ := brsFixture(t)
	// Inside the obstacle: zero.
	if got := brs.timeToUnsafe(geom.V(10, 10, 2)); got != 0 {
		t.Errorf("timeToUnsafe inside obstacle = %v", got)
	}
	// Outside the grid: zero (boundary is unsafe).
	if got := brs.timeToUnsafe(geom.V(-5, 0, 0)); got != 0 {
		t.Errorf("timeToUnsafe outside grid = %v", got)
	}
	// A free point ~2m from the obstacle at vmax=2 m/s needs ≈1s, certainly
	// within [0.5, 2].
	got := brs.timeToUnsafe(geom.V(6, 10, 2))
	if got < 0.5 || got > 2.0 {
		t.Errorf("timeToUnsafe 2m away = %v, want ≈1s", got)
	}
}

func TestTimeToUnsafeMonotoneWithDistance(t *testing.T) {
	brs, _ := brsFixture(t)
	// Walking away from the obstacle along -x, time-to-unsafe must be
	// non-decreasing until boundary effects dominate.
	prev := brs.timeToUnsafe(geom.V(7.5, 10, 2))
	for x := 7.0; x >= 4.0; x -= 0.5 {
		cur := brs.timeToUnsafe(geom.V(x, 10, 2))
		if cur+1e-9 < prev {
			t.Fatalf("time-to-unsafe decreased moving away: x=%v %v -> %v", x, prev, cur)
		}
		prev = cur
	}
}

func TestCanEscapeWithin(t *testing.T) {
	brs, _ := brsFixture(t)
	p := geom.V(7.5, 10, 2) // about 0.5 m from the obstacle face
	if !brs.CanEscapeWithin(p, 2*time.Second) {
		t.Error("point near obstacle should be escapable within 2s")
	}
	far := geom.V(3, 3, 2)
	if brs.CanEscapeWithin(far, 100*time.Millisecond) {
		t.Error("far point should not be escapable within 100ms")
	}
}

func TestFractionEscapableMonotone(t *testing.T) {
	brs, _ := brsFixture(t)
	f1 := brs.FractionEscapable(400 * time.Millisecond)
	f2 := brs.FractionEscapable(time.Second)
	f3 := brs.FractionEscapable(time.Hour)
	if f1 > f2 || f2 > f3 {
		t.Errorf("fraction not monotone: %v %v %v", f1, f2, f3)
	}
	if f3 != 1 {
		t.Errorf("everything is escapable eventually in a bounded workspace, got %v", f3)
	}
	if f1 <= 0 {
		t.Errorf("cells adjacent to the obstacle should be escapable in 400ms, got %v", f1)
	}
	// Below one cell-traversal time nothing escapes: the band is empty.
	if f0 := brs.FractionEscapable(100 * time.Millisecond); f0 != 0 {
		t.Errorf("sub-cell horizon fraction = %v, want 0", f0)
	}
}

// TestBRSAgreesWithEuclideanLowerBound: the Dijkstra time is at least the
// straight-line distance divided by vmax (it cannot beat the metric lower
// bound).
func TestBRSLowerBound(t *testing.T) {
	brs, ws := brsFixture(t)
	obstacle := geom.Box(geom.V(8, 8, 0), geom.V(12, 12, 4))
	for _, p := range []geom.Vec3{
		geom.V(3, 3, 2), geom.V(6, 10, 2), geom.V(17, 17, 1), geom.V(10, 4, 3),
	} {
		if !ws.Free(p) {
			continue
		}
		tt := brs.timeToUnsafe(p)
		// Nearest unsafe set: the obstacle or the outer boundary.
		dObs := obstacle.Distance(p)
		dBound := boundaryDistance(ws.Bounds(), p)
		lower := math.Min(dObs, dBound) / 2.0 // vmax = 2
		// One cell diagonal of slack for discretisation.
		slack := 0.5 * math.Sqrt(3) / 2.0
		if tt+slack < lower {
			t.Errorf("timeToUnsafe(%v) = %v below metric lower bound %v", p, tt, lower)
		}
	}
}

func boundaryDistance(b geom.AABB, p geom.Vec3) float64 {
	d := math.Min(p.X-b.Min.X, b.Max.X-p.X)
	d = math.Min(d, math.Min(p.Y-b.Min.Y, b.Max.Y-p.Y))
	d = math.Min(d, math.Min(p.Z-b.Min.Z, b.Max.Z-p.Z))
	if d < 0 {
		return 0
	}
	return d
}

package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testWorkspace(t *testing.T) *Workspace {
	t.Helper()
	ws, err := NewWorkspace(
		Box(V(0, 0, 0), V(20, 20, 10)),
		[]AABB{
			Box(V(5, 5, 0), V(8, 8, 6)),
			Box(V(12, 12, 0), V(15, 15, 4)),
		},
	)
	if err != nil {
		t.Fatalf("NewWorkspace: %v", err)
	}
	return ws
}

func TestNewWorkspaceRejectsEmptyBounds(t *testing.T) {
	if _, err := NewWorkspace(AABB{Min: V(1, 0, 0), Max: V(0, 1, 1)}, nil); err == nil {
		t.Fatal("expected error for empty bounds")
	}
}

func TestWorkspaceFree(t *testing.T) {
	ws := testWorkspace(t)
	tests := []struct {
		p    Vec3
		want bool
	}{
		{V(1, 1, 1), true},
		{V(6, 6, 3), false},   // inside obstacle 1
		{V(13, 13, 2), false}, // inside obstacle 2
		{V(13, 13, 5), true},  // above obstacle 2
		{V(-1, 1, 1), false},  // out of bounds
		{V(21, 1, 1), false},
	}
	for _, tt := range tests {
		if got := ws.Free(tt.p); got != tt.want {
			t.Errorf("Free(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestWorkspaceFreeWithMargin(t *testing.T) {
	ws := testWorkspace(t)
	// 0.4 m from the obstacle face at x=5.
	p := V(4.6, 6, 3)
	if !ws.Free(p) {
		t.Fatal("point should be free without margin")
	}
	if ws.FreeWithMargin(p, 0.5) {
		t.Error("point 0.4m from obstacle should violate 0.5m margin")
	}
	if !ws.FreeWithMargin(p, 0.3) {
		t.Error("point 0.4m from obstacle should satisfy 0.3m margin")
	}
	// Margin against the outer boundary.
	if ws.FreeWithMargin(V(0.2, 10, 5), 0.5) {
		t.Error("point 0.2m from boundary should violate 0.5m margin")
	}
}

func TestWorkspaceSegmentFree(t *testing.T) {
	ws := testWorkspace(t)
	if ws.SegmentFree(V(1, 6, 3), V(10, 6, 3), 0) {
		t.Error("segment through obstacle 1 should not be free")
	}
	if !ws.SegmentFree(V(1, 1, 1), V(18, 1, 1), 0.5) {
		t.Error("segment along free corridor should be free")
	}
	if ws.SegmentFree(V(1, 1, 1), V(25, 1, 1), 0) {
		t.Error("segment leaving bounds should not be free")
	}
	// Margin: passing 0.3m from obstacle face fails a 0.5m margin.
	if ws.SegmentFree(V(1, 4.7, 3), V(18, 4.7, 3), 0.5) {
		t.Error("segment 0.3m from obstacle should violate 0.5m margin")
	}
}

func TestWorkspaceClearance(t *testing.T) {
	ws := testWorkspace(t)
	if got := ws.Clearance(V(6, 6, 3)); got != 0 {
		t.Errorf("Clearance inside obstacle = %v", got)
	}
	if got := ws.Clearance(V(-1, 0, 0)); got != 0 {
		t.Errorf("Clearance out of bounds = %v", got)
	}
	// 1 m from the obstacle face at x=5, far from everything else except
	// bounds (4 m from x=0... actually 4m; z=3 gives 3m to floor).
	got := ws.Clearance(V(4, 6.5, 3))
	if !almostEq(got, 1) {
		t.Errorf("Clearance = %v, want 1", got)
	}
}

func TestRandomFreePoint(t *testing.T) {
	ws := testWorkspace(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		p, ok := ws.RandomFreePoint(rng, 0.5, 256)
		if !ok {
			t.Fatal("failed to sample a free point in a mostly-free workspace")
		}
		if !ws.FreeWithMargin(p, 0.5) {
			t.Fatalf("sampled point %v violates the margin", p)
		}
	}
}

func TestRetreatDirectionPointsAway(t *testing.T) {
	ws := testWorkspace(t)
	// Next to the -X face of obstacle 1: retreat should have negative X.
	d := ws.RetreatDirection(V(4.5, 6.5, 3), 2)
	if d.X >= 0 {
		t.Errorf("retreat near obstacle face should point -X, got %v", d)
	}
	// Near the floor: retreat should have positive Z.
	d = ws.RetreatDirection(V(10, 2, 0.3), 2)
	if d.Z <= 0 {
		t.Errorf("retreat near floor should point +Z, got %v", d)
	}
	// Far from everything: zero.
	d = ws.RetreatDirection(V(16, 5, 5), 1)
	if d != Zero {
		t.Errorf("retreat in open space = %v, want zero", d)
	}
}

func TestCityWorkspace(t *testing.T) {
	ws := CityWorkspace()
	if n := len(ws.ObstaclesView()); n != 12 {
		t.Errorf("city workspace has %d obstacles, want 12", n)
	}
	if !ws.Free(V(3, 3, 2)) {
		t.Error("the home corner should be free")
	}
	if ws.Free(V(10, 10, 2)) {
		t.Error("inside a house should not be free")
	}
}

// Property: BoxFree(box) implies Free for every sampled point of the box.
func TestBoxFreeSoundnessProperty(t *testing.T) {
	ws := testWorkspace(t)
	rng := rand.New(rand.NewSource(7))
	f := func(cx, cy, cz, hx, hy, hz float64) bool {
		c := V(3+math.Mod(math.Abs(cx), 14), 3+math.Mod(math.Abs(cy), 14), 1+math.Mod(math.Abs(cz), 8))
		h := V(math.Mod(math.Abs(hx), 2), math.Mod(math.Abs(hy), 2), math.Mod(math.Abs(hz), 2))
		box := AABB{Min: c.Sub(h), Max: c.Add(h)}
		if !ws.BoxFree(box, 0) {
			return true
		}
		for i := 0; i < 16; i++ {
			p := V(
				box.Min.X+rng.Float64()*(box.Max.X-box.Min.X),
				box.Min.Y+rng.Float64()*(box.Max.Y-box.Min.Y),
				box.Min.Z+rng.Float64()*(box.Max.Z-box.Min.Z),
			)
			if !ws.Free(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SegmentFree with a larger margin implies SegmentFree with a
// smaller one (monotonicity).
func TestSegmentMarginMonotoneProperty(t *testing.T) {
	ws := testWorkspace(t)
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V(math.Mod(math.Abs(ax), 20), math.Mod(math.Abs(ay), 20), math.Mod(math.Abs(az), 10))
		b := V(math.Mod(math.Abs(bx), 20), math.Mod(math.Abs(by), 20), math.Mod(math.Abs(bz), 10))
		if ws.SegmentFree(a, b, 0.8) {
			return ws.SegmentFree(a, b, 0.2)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

package geom

import (
	"math/rand"
	"testing"
)

// indexWorkspaces returns the full factory set, covering every obstacle
// layout the scenarios use.
func indexWorkspaces() []*Workspace {
	open, err := NewWorkspace(Box(V(0, 0, 0), V(20, 20, 10)), nil)
	if err != nil {
		panic(err)
	}
	return []*Workspace{CityWorkspace(), CanyonWorkspace(), CornerHazardWorkspace(), open}
}

// TestIndexMatchesLinearOnFactories sweeps a deterministic grid of points,
// boxes and segments over every factory workspace at several margins and
// requires the indexed answers to equal the linear-scan ground truth.
func TestIndexMatchesLinearOnFactories(t *testing.T) {
	margins := []float64{0, 0.45, 0.6, 1.25, 1.31, 3.0, -0.5}
	for _, ws := range indexWorkspaces() {
		b := ws.Bounds()
		size := b.Size()
		rng := rand.New(rand.NewSource(7))
		for _, m := range margins {
			for i := 0; i < 400; i++ {
				p := V(
					b.Min.X-2+rng.Float64()*(size.X+4),
					b.Min.Y-2+rng.Float64()*(size.Y+4),
					b.Min.Z-2+rng.Float64()*(size.Z+4),
				)
				q := V(
					b.Min.X-2+rng.Float64()*(size.X+4),
					b.Min.Y-2+rng.Float64()*(size.Y+4),
					b.Min.Z-2+rng.Float64()*(size.Z+4),
				)
				if got, want := ws.FreeWithMargin(p, m), ws.freeWithMarginLinear(p, m); got != want {
					t.Fatalf("FreeWithMargin(%v, %v) = %v, linear = %v", p, m, got, want)
				}
				box := Box(p, q)
				if got, want := ws.BoxFree(box, m), ws.boxFreeLinear(box, m); got != want {
					t.Fatalf("BoxFree(%v, %v) = %v, linear = %v", box, m, got, want)
				}
				if got, want := ws.SegmentFree(p, q, m), ws.segmentFreeLinear(p, q, m); got != want {
					t.Fatalf("SegmentFree(%v, %v, %v) = %v, linear = %v", p, q, m, got, want)
				}
			}
		}
		for i := 0; i < 2000; i++ {
			p := V(rng.Float64()*size.X, rng.Float64()*size.Y, rng.Float64()*size.Z).Add(b.Min)
			if got, want := ws.Free(p), ws.freeLinear(p); got != want {
				t.Fatalf("Free(%v) = %v, linear = %v", p, got, want)
			}
		}
	}
}

// TestIndexCacheCapFallsBackToLinear queries more distinct margins than the
// cache holds and checks the overflow margins still answer exactly.
func TestIndexCacheCapFallsBackToLinear(t *testing.T) {
	ws := CityWorkspace()
	p := V(10, 10, 3)
	for i := 0; i < 2*maxCachedIndexes; i++ {
		m := 0.1 * float64(i)
		if got, want := ws.FreeWithMargin(p, m), ws.freeWithMarginLinear(p, m); got != want {
			t.Fatalf("margin %v: indexed %v != linear %v", m, got, want)
		}
	}
	if s := ws.cache.views.Load(); s == nil || len(s.views) != maxCachedIndexes {
		t.Fatalf("cache should be capped at %d views", maxCachedIndexes)
	}
	// IndexFor still serves overflow margins with a correct uncached index.
	idx := ws.IndexFor(99.0)
	if idx == nil || idx.margin != 99.0 {
		t.Fatalf("IndexFor must build past the cache cap, got %+v", idx)
	}
}

// TestObstaclesViewAliasesStorage pins the accessor contract: ObstaclesView
// shares storage (no copy).
func TestObstaclesViewAliasesStorage(t *testing.T) {
	ws := CityWorkspace()
	view := ws.ObstaclesView()
	if len(view) != len(ws.obstacles) {
		t.Fatalf("view has %d obstacles, want %d", len(view), len(ws.obstacles))
	}
	if &view[0] != &ws.obstacles[0] {
		t.Fatal("ObstaclesView must alias the internal slice")
	}
}

// FuzzIndexedQueryEquivalence is the soundness gate for the bitmap fast
// path: on random workspaces, margins, points, boxes and segments, the
// indexed Free/BoxFree/SegmentFree must agree with the naive linear scan.
func FuzzIndexedQueryEquivalence(f *testing.F) {
	f.Add(int64(1), 0.45, 5.0, 5.0, 2.0, 12.0, 9.0, 4.0)
	f.Add(int64(2), 0.0, 0.0, 0.0, 0.0, 50.0, 50.0, 12.0)
	f.Add(int64(3), -0.8, -3.0, 20.0, 1.0, 55.0, 20.0, 1.0)
	f.Add(int64(4), 2.5, 49.9, 0.1, 11.9, 0.2, 49.8, 0.3)
	f.Fuzz(func(t *testing.T, seed int64, margin, ax, ay, az, bx, by, bz float64) {
		if margin < -10 || margin > 10 || !finite(margin) {
			t.Skip()
		}
		for _, v := range []float64{ax, ay, az, bx, by, bz} {
			if v < -1e6 || v > 1e6 || !finite(v) {
				t.Skip()
			}
		}
		rng := rand.New(rand.NewSource(seed))
		// Random bounded workspace with random obstacles.
		bounds := Box(V(0, 0, 0), V(10+rng.Float64()*60, 10+rng.Float64()*60, 4+rng.Float64()*12))
		n := rng.Intn(20)
		obstacles := make([]AABB, 0, n)
		size := bounds.Size()
		for i := 0; i < n; i++ {
			c := V(rng.Float64()*size.X, rng.Float64()*size.Y, rng.Float64()*size.Z)
			h := V(0.2+rng.Float64()*6, 0.2+rng.Float64()*6, 0.2+rng.Float64()*4)
			obstacles = append(obstacles, AABB{Min: c.Sub(h), Max: c.Add(h)})
		}
		ws, err := NewWorkspace(bounds, obstacles)
		if err != nil {
			t.Fatal(err)
		}
		a := V(ax, ay, az)
		b := V(bx, by, bz)
		if got, want := ws.FreeWithMargin(a, margin), ws.freeWithMarginLinear(a, margin); got != want {
			t.Fatalf("FreeWithMargin(%v, %v): indexed %v != linear %v", a, margin, got, want)
		}
		if got, want := ws.Free(a), ws.freeLinear(a); got != want {
			t.Fatalf("Free(%v): indexed %v != linear %v", a, got, want)
		}
		box := Box(a, b)
		if got, want := ws.BoxFree(box, margin), ws.boxFreeLinear(box, margin); got != want {
			t.Fatalf("BoxFree(%v, %v): indexed %v != linear %v", box, margin, got, want)
		}
		if got, want := ws.SegmentFree(a, b, margin), ws.segmentFreeLinear(a, b, margin); got != want {
			t.Fatalf("SegmentFree(%v, %v, %v): indexed %v != linear %v", a, b, margin, got, want)
		}
	})
}

func finite(v float64) bool { return v == v && v < 1e308 && v > -1e308 }

// TestWorkspaceBoxFreeAllocs asserts the index-backed hot-path queries are
// allocation-free (the interning_test.go pattern).
func TestWorkspaceBoxFreeAllocs(t *testing.T) {
	ws := CityWorkspace()
	box := Box(V(9, 9, 2), V(11, 11, 4))
	seg := [2]Vec3{V(2, 2, 2), V(48, 48, 10)}
	p := V(17.5, 17.0, 1.0)
	ws.BoxFree(box, 0.45) // warm the margin cache outside the measurement
	sink := false
	allocs := testing.AllocsPerRun(200, func() {
		sink = ws.BoxFree(box, 0.45)
		sink = ws.FreeWithMargin(p, 0.45) && sink
		sink = ws.SegmentFree(seg[0], seg[1], 0.45) && sink
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("index-backed workspace queries allocate %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkWorkspaceBoxFree(b *testing.B) {
	ws := CityWorkspace()
	box := Box(V(17, 16.5, 0.5), V(19.5, 18.5, 2.0)) // near the parked cars
	ws.BoxFree(box, 0.45)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.BoxFree(box, 0.45)
	}
}

func BenchmarkWorkspaceBoxFreeLinear(b *testing.B) {
	ws := CityWorkspace()
	box := Box(V(17, 16.5, 0.5), V(19.5, 18.5, 2.0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.boxFreeLinear(box, 0.45)
	}
}

func BenchmarkWorkspaceSegmentFree(b *testing.B) {
	ws := CityWorkspace()
	a, c := V(2, 2, 2), V(48, 48, 10)
	ws.SegmentFree(a, c, 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.SegmentFree(a, c, 0.6)
	}
}

package geom

import (
	"fmt"
	"math/rand"
)

// Workspace is the drone's operating volume: an outer bound and a set of
// static axis-aligned obstacles. It mirrors the simplified setting of the
// paper's case study (Section II-A): all obstacles are static and known a
// priori, and there are no environment uncertainties like wind. Its
// obstacles are read through the aliasing ObstaclesView or the indexed
// queries (Free, BoxFree, SegmentFree); there is no copying accessor.
type Workspace struct {
	bounds    AABB
	obstacles []AABB
	// cache holds the lazily-built per-margin query indexes (index.go). It
	// is internally synchronized; the Workspace itself stays immutable and
	// safe to share across fleet workers.
	cache indexCache
}

// NewWorkspace constructs a workspace. Obstacles are clipped conceptually to
// the bounds (an obstacle fully outside the bounds is still stored but can
// never be hit by an in-bounds drone). The obstacle slice is copied.
func NewWorkspace(bounds AABB, obstacles []AABB) (*Workspace, error) {
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("workspace bounds %v are empty", bounds)
	}
	obs := make([]AABB, len(obstacles))
	copy(obs, obstacles)
	return &Workspace{bounds: bounds, obstacles: obs}, nil
}

// Bounds returns the outer bounding box of the workspace.
func (w *Workspace) Bounds() AABB { return w.bounds }

// ObstaclesView returns the workspace's obstacle slice without copying. The
// returned slice is shared and MUST be treated as read-only; a caller that
// wants an edited obstacle set builds a new Workspace, and NewWorkspace
// copies what it is given.
func (w *Workspace) ObstaclesView() []AABB { return w.obstacles }

// Free reports whether point p is inside the bounds and outside every
// obstacle. This is the position-level φsafe of the paper's obstacle
// avoidance property φobs.
func (w *Workspace) Free(p Vec3) bool {
	// Expand(0) is bit-identical to the raw bounds/obstacles, so the margin-0
	// index answers exactly the unexpanded containment checks.
	if v := w.viewFor(0); v != nil {
		return v.Free(p)
	}
	return w.freeLinear(p)
}

// FreeWithMargin reports whether p keeps at least margin clearance from every
// obstacle and from the workspace boundary. Margin is typically the drone's
// bounding radius.
func (w *Workspace) FreeWithMargin(p Vec3, margin float64) bool {
	if v := w.viewFor(margin); v != nil {
		return v.Free(p)
	}
	return w.freeWithMarginLinear(p, margin)
}

// BoxFree reports whether the whole box b (for example a worst-case reachable
// set) stays inside the bounds and intersects no obstacle. When margin > 0
// obstacles are inflated and the bounds deflated by margin first.
func (w *Workspace) BoxFree(b AABB, margin float64) bool {
	if v := w.viewFor(margin); v != nil {
		return v.BoxFree(b)
	}
	return w.boxFreeLinear(b, margin)
}

// SegmentFree reports whether the straight segment a→b keeps at least margin
// clearance from every obstacle and stays inside the (deflated) bounds. It is
// the motion-plan validity check φplan: a reference trajectory between two
// waypoints must not collide with any obstacle.
func (w *Workspace) SegmentFree(a, b Vec3, margin float64) bool {
	if v := w.viewFor(margin); v != nil {
		return v.SegmentFree(a, b)
	}
	return w.segmentFreeLinear(a, b, margin)
}

// The linear variants below are the original O(obstacles) scans with
// per-query Expand. They remain the semantic ground truth: the index cache
// falls back to them beyond its margin capacity, and the differential fuzz
// test (FuzzIndexedQueryEquivalence) pins the indexed paths to them bit for
// bit.

func (w *Workspace) freeLinear(p Vec3) bool {
	if !w.bounds.Contains(p) {
		return false
	}
	for _, o := range w.obstacles {
		if o.Contains(p) {
			return false
		}
	}
	return true
}

func (w *Workspace) freeWithMarginLinear(p Vec3, margin float64) bool {
	if !w.bounds.Expand(-margin).Contains(p) {
		return false
	}
	for _, o := range w.obstacles {
		if o.Expand(margin).Contains(p) {
			return false
		}
	}
	return true
}

func (w *Workspace) boxFreeLinear(b AABB, margin float64) bool {
	if !w.bounds.Expand(-margin).ContainsBox(b) {
		return false
	}
	for _, o := range w.obstacles {
		if o.Expand(margin).Intersects(b) {
			return false
		}
	}
	return true
}

func (w *Workspace) segmentFreeLinear(a, b Vec3, margin float64) bool {
	inner := w.bounds.Expand(-margin)
	if !inner.Contains(a) || !inner.Contains(b) {
		return false
	}
	for _, o := range w.obstacles {
		if o.Expand(margin).SegmentIntersects(a, b) {
			return false
		}
	}
	return true
}

// Clearance returns the distance from p to the nearest obstacle surface or
// workspace boundary. Points inside an obstacle or outside the bounds report
// zero clearance.
func (w *Workspace) Clearance(p Vec3) float64 {
	if !w.bounds.Contains(p) {
		return 0
	}
	// Distance to the inner faces of the bounds.
	best := minFaceDistance(w.bounds, p)
	for _, o := range w.obstacles {
		if o.Contains(p) {
			return 0
		}
		if d := o.Distance(p); d < best {
			best = d
		}
	}
	return best
}

// RandomFreePoint draws a uniformly random point with the given clearance
// margin, retrying up to maxTries times. It returns false if no free point
// was found (for example in a workspace that is almost fully blocked).
func (w *Workspace) RandomFreePoint(rng *rand.Rand, margin float64, maxTries int) (Vec3, bool) {
	size := w.bounds.Size()
	for i := 0; i < maxTries; i++ {
		p := Vec3{
			X: w.bounds.Min.X + rng.Float64()*size.X,
			Y: w.bounds.Min.Y + rng.Float64()*size.Y,
			Z: w.bounds.Min.Z + rng.Float64()*size.Z,
		}
		if w.FreeWithMargin(p, margin) {
			return p, true
		}
	}
	return Vec3{}, false
}

func minFaceDistance(b AABB, p Vec3) float64 {
	d := p.Sub(b.Min).Min(b.Max.Sub(p))
	m := d.X
	if d.Y < m {
		m = d.Y
	}
	if d.Z < m {
		m = d.Z
	}
	if m < 0 {
		return 0
	}
	return m
}

// CityWorkspace builds the default city surveillance workspace mirroring the
// paper's Figure 2: a bounded urban block with houses and parked cars as
// static obstacles. Dimensions are in metres; the flyable volume is
// 50m x 50m x 12m.
func CityWorkspace() *Workspace {
	bounds := Box(V(0, 0, 0), V(50, 50, 12))
	obstacles := []AABB{
		// Houses (tall blocks).
		Box(V(6, 6, 0), V(14, 14, 8)),
		Box(V(20, 4, 0), V(30, 12, 7)),
		Box(V(36, 6, 0), V(44, 16, 9)),
		Box(V(6, 22, 0), V(16, 30, 8)),
		Box(V(22, 20, 0), V(32, 28, 6)),
		Box(V(38, 24, 0), V(46, 32, 8)),
		Box(V(8, 36, 0), V(18, 44, 7)),
		Box(V(24, 36, 0), V(34, 46, 9)),
		// Parked cars (low blocks along the streets).
		Box(V(17, 16, 0), V(19, 18, 1.6)),
		Box(V(33, 14, 0), V(35, 16, 1.6)),
		Box(V(19, 32, 0), V(21, 34, 1.6)),
		Box(V(36, 40, 0), V(38, 42, 1.6)),
	}
	ws, err := NewWorkspace(bounds, obstacles)
	if err != nil {
		// The literal bounds above are non-empty; this cannot happen.
		panic(err)
	}
	return ws
}

// CanyonWorkspace builds a narrow-passage workspace: two long, full-height
// walls squeeze the flyable volume into a 5 m wide corridor connecting an
// open staging area on each side. Missions that shuttle between the two
// areas force every layer — planner, motion primitives, decision modules —
// through the passage, where the φsafer band is tight and AC overshoot
// triggers disengagements far more often than in the open city blocks.
// Dimensions are in metres; the flyable volume is 60m x 30m x 10m.
func CanyonWorkspace() *Workspace {
	bounds := Box(V(0, 0, 0), V(60, 30, 10))
	obstacles := []AABB{
		// Canyon walls: full height, leaving a corridor y ∈ (12.5, 17.5).
		Box(V(14, 0, 0), V(46, 12.5, 10)),
		Box(V(14, 17.5, 0), V(46, 30, 10)),
		// Rock outcrops near the two canyon mouths, offset from the
		// centre line so the direct route stays free but hugs them.
		Box(V(10, 18, 0), V(13, 22, 6)),
		Box(V(47, 8, 0), V(50, 12, 6)),
	}
	ws, err := NewWorkspace(bounds, obstacles)
	if err != nil {
		panic(err) // static geometry
	}
	return ws
}

// CornerHazardWorkspace builds the g1..g4 tour workspace of Figure 5
// (right) and Figure 12a: an open square with hazard blocks ("red regions")
// placed just beyond each corner in the overshoot direction — inside the
// ~1 m overshoot of the aggressive controller at cruise speed.
func CornerHazardWorkspace() *Workspace {
	bounds := Box(V(0, 0, 0), V(30, 30, 8))
	obstacles := []AABB{
		Box(V(25.7, 2, 0), V(28.5, 8, 6)),   // past g2 (+x)
		Box(V(22, 25.7, 0), V(28, 28.5, 6)), // past g3 (+y)
		Box(V(1.5, 22, 0), V(4.3, 28, 6)),   // past g4 (-x)
		Box(V(2, 1.5, 0), V(8, 4.3, 6)),     // past g1 (-y)
	}
	ws, err := NewWorkspace(bounds, obstacles)
	if err != nil {
		panic(err) // static geometry
	}
	return ws
}

// RetreatDirection returns a unit vector pointing away from nearby obstacles
// and workspace boundaries — an ascent direction of the clearance field at p.
// It is used by the safe controller to actively recover into the φsafer
// region (the paper's SC "must ... move it to a state in φsafer"). The zero
// vector is returned when p is comfortably clear of everything within range.
func (w *Workspace) RetreatDirection(p Vec3, influence float64) Vec3 {
	var dir Vec3
	for _, o := range w.obstacles {
		cp := o.ClosestPoint(p)
		d := cp.Dist(p)
		if d >= influence {
			continue
		}
		if d < 1e-9 {
			// Inside or on the obstacle: push toward the obstacle centre's
			// opposite side via the box centre.
			dir = dir.Add(p.Sub(o.Center()).Unit())
			continue
		}
		dir = dir.Add(p.Sub(cp).Unit().Scale((influence - d) / influence))
	}
	// Push inward from the workspace faces.
	b := w.bounds
	faces := [6]struct {
		d float64
		n Vec3
	}{
		{p.X - b.Min.X, V(1, 0, 0)},
		{b.Max.X - p.X, V(-1, 0, 0)},
		{p.Y - b.Min.Y, V(0, 1, 0)},
		{b.Max.Y - p.Y, V(0, -1, 0)},
		{p.Z - b.Min.Z, V(0, 0, 1)},
		{b.Max.Z - p.Z, V(0, 0, -1)},
	}
	for _, f := range faces {
		if f.d < influence {
			dir = dir.Add(f.n.Scale((influence - f.d) / influence))
		}
	}
	return dir.Unit()
}

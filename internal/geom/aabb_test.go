package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBoxNormalisesCorners(t *testing.T) {
	b := Box(V(5, -1, 3), V(1, 2, 0))
	if !vecAlmostEq(b.Min, V(1, -1, 0)) || !vecAlmostEq(b.Max, V(5, 2, 3)) {
		t.Errorf("Box = %v", b)
	}
	if !vecAlmostEq(b.Center(), V(3, 0.5, 1.5)) {
		t.Errorf("Center = %v", b.Center())
	}
}

// boxAt constructs an AABB centred at c with half-extents h.
func boxAt(c, h Vec3) AABB {
	return AABB{Min: c.Sub(h), Max: c.Add(h)}
}

func TestBoxAt(t *testing.T) {
	b := boxAt(V(1, 1, 1), V(0.5, 1, 2))
	if !vecAlmostEq(b.Min, V(0.5, 0, -1)) || !vecAlmostEq(b.Max, V(1.5, 2, 3)) {
		t.Errorf("boxAt = %v", b)
	}
	if !vecAlmostEq(b.Center(), V(1, 1, 1)) {
		t.Errorf("Center = %v", b.Center())
	}
	if !vecAlmostEq(b.Size(), V(1, 2, 4)) {
		t.Errorf("Size = %v", b.Size())
	}
}

func TestAABBContains(t *testing.T) {
	b := Box(V(0, 0, 0), V(10, 10, 10))
	tests := []struct {
		p    Vec3
		want bool
	}{
		{V(5, 5, 5), true},
		{V(0, 0, 0), true}, // boundary counts
		{V(10, 10, 10), true},
		{V(10.01, 5, 5), false},
		{V(-0.01, 5, 5), false},
	}
	for _, tt := range tests {
		if got := b.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestAABBIntersects(t *testing.T) {
	a := Box(V(0, 0, 0), V(2, 2, 2))
	tests := []struct {
		name string
		b    AABB
		want bool
	}{
		{"overlapping", Box(V(1, 1, 1), V(3, 3, 3)), true},
		{"touching face", Box(V(2, 0, 0), V(4, 2, 2)), true},
		{"disjoint", Box(V(3, 3, 3), V(4, 4, 4)), false},
		{"contained", Box(V(0.5, 0.5, 0.5), V(1, 1, 1)), true},
		{"empty other", AABB{Min: V(1, 1, 1), Max: V(0, 0, 0)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.Intersects(tt.b); got != tt.want {
				t.Errorf("Intersects = %v, want %v", got, tt.want)
			}
			if got := tt.b.Intersects(a); got != tt.want {
				t.Errorf("Intersects (sym) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAABBExpand(t *testing.T) {
	b := Box(V(0, 0, 0), V(2, 2, 2)).Expand(1)
	if !vecAlmostEq(b.Min, V(-1, -1, -1)) || !vecAlmostEq(b.Max, V(3, 3, 3)) {
		t.Errorf("Expand = %v", b)
	}
	shrunk := Box(V(0, 0, 0), V(2, 2, 2)).Expand(-1.5)
	if !shrunk.IsEmpty() {
		t.Errorf("over-shrunk box should be empty: %v", shrunk)
	}
}

func TestAABBDistance(t *testing.T) {
	b := Box(V(0, 0, 0), V(2, 2, 2))
	if got := b.Distance(V(1, 1, 1)); !almostEq(got, 0) {
		t.Errorf("Distance inside = %v", got)
	}
	if got := b.Distance(V(5, 1, 1)); !almostEq(got, 3) {
		t.Errorf("Distance face = %v", got)
	}
	if got := b.Distance(V(5, 6, 1)); !almostEq(got, 5) {
		t.Errorf("Distance edge = %v", got)
	}
}

func TestSegmentIntersects(t *testing.T) {
	b := Box(V(2, 2, 2), V(4, 4, 4))
	tests := []struct {
		name string
		a, c Vec3
		want bool
	}{
		{"crossing through", V(0, 3, 3), V(6, 3, 3), true},
		{"ends inside", V(3, 3, 3), V(10, 10, 10), true},
		{"fully inside", V(2.5, 2.5, 2.5), V(3.5, 3.5, 3.5), true},
		{"missing", V(0, 0, 0), V(1, 1, 1), false},
		{"parallel outside", V(0, 5, 3), V(6, 5, 3), false},
		{"diagonal through corner region", V(0, 0, 0), V(6, 6, 6), true},
		{"degenerate point inside", V(3, 3, 3), V(3, 3, 3), true},
		{"degenerate point outside", V(1, 1, 1), V(1, 1, 1), false},
		{"grazing face", V(0, 2, 3), V(6, 2, 3), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := b.SegmentIntersects(tt.a, tt.c); got != tt.want {
				t.Errorf("SegmentIntersects(%v, %v) = %v, want %v", tt.a, tt.c, got, tt.want)
			}
		})
	}
}

func TestAABBUnionVolume(t *testing.T) {
	a := Box(V(0, 0, 0), V(1, 1, 1))
	b := Box(V(2, 2, 2), V(3, 4, 5))
	u := a.Union(b)
	if !vecAlmostEq(u.Min, V(0, 0, 0)) || !vecAlmostEq(u.Max, V(3, 4, 5)) {
		t.Errorf("Union = %v", u)
	}
	if s := b.Size(); !almostEq(s.X*s.Y*s.Z, 1*2*3) {
		t.Errorf("volume of %v = %v", b, s.X*s.Y*s.Z)
	}
	var empty AABB
	empty.Min = V(1, 0, 0) // Min > Max on X
	if got := a.Union(empty); got != a {
		t.Errorf("Union with empty = %v", got)
	}
}

func TestContainsBox(t *testing.T) {
	outer := Box(V(0, 0, 0), V(10, 10, 10))
	if !outer.ContainsBox(Box(V(1, 1, 1), V(9, 9, 9))) {
		t.Error("inner box should be contained")
	}
	if outer.ContainsBox(Box(V(1, 1, 1), V(11, 9, 9))) {
		t.Error("protruding box should not be contained")
	}
}

// Property: a segment's midpoint inside the box implies intersection.
func TestSegmentMidpointProperty(t *testing.T) {
	b := Box(V(-1, -1, -1), V(1, 1, 1))
	f := func(ax, ay, az, cx, cy, cz float64) bool {
		a := V(math.Mod(ax, 10), math.Mod(ay, 10), math.Mod(az, 10))
		c := V(math.Mod(cx, 10), math.Mod(cy, 10), math.Mod(cz, 10))
		mid := a.Add(c).Scale(0.5)
		if b.Contains(mid) {
			return b.SegmentIntersects(a, c)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SegmentIntersects is symmetric in its endpoints.
func TestSegmentSymmetryProperty(t *testing.T) {
	b := Box(V(0, 0, 0), V(3, 2, 5))
	f := func(ax, ay, az, cx, cy, cz float64) bool {
		a := V(math.Mod(ax, 12), math.Mod(ay, 12), math.Mod(az, 12))
		c := V(math.Mod(cx, 12), math.Mod(cy, 12), math.Mod(cz, 12))
		return b.SegmentIntersects(a, c) == b.SegmentIntersects(c, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Distance(p) == 0 iff Contains(p).
func TestDistanceContainsProperty(t *testing.T) {
	b := Box(V(-2, 0, 1), V(4, 3, 6))
	f := func(x, y, z float64) bool {
		p := V(math.Mod(x, 15), math.Mod(y, 15), math.Mod(z, 15))
		return (b.Distance(p) == 0) == b.Contains(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

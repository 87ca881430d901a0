package geom

import (
	"fmt"
	"math"
)

// AABB is an axis-aligned bounding box, used for obstacles (buildings, cars in
// the Figure 2 city map), for workspace bounds, and for worst-case reachable
// sets of the double-integrator plant.
type AABB struct {
	Min, Max Vec3
}

// Box constructs an AABB from two opposite corners in any order.
func Box(a, b Vec3) AABB {
	return AABB{Min: a.Min(b), Max: a.Max(b)}
}

// Center returns the centre point of the box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the extent of the box along each axis.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// IsEmpty reports whether the box contains no points (Min > Max on some axis).
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Contains reports whether point p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// ContainsBox reports whether box o lies entirely within b.
func (b AABB) ContainsBox(o AABB) bool {
	if o.IsEmpty() {
		return true
	}
	return b.Contains(o.Min) && b.Contains(o.Max)
}

// Intersects reports whether b and o overlap (sharing a boundary counts).
func (b AABB) Intersects(o AABB) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.Min.X <= o.Max.X && b.Max.X >= o.Min.X &&
		b.Min.Y <= o.Max.Y && b.Max.Y >= o.Min.Y &&
		b.Min.Z <= o.Max.Z && b.Max.Z >= o.Min.Z
}

// Expand returns b grown by margin m on every side. Negative m shrinks the
// box and may produce an empty box.
func (b AABB) Expand(m float64) AABB {
	d := Vec3{m, m, m}
	return AABB{Min: b.Min.Sub(d), Max: b.Max.Add(d)}
}

// Union returns the smallest AABB containing both b and o.
func (b AABB) Union(o AABB) AABB {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return AABB{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// ClosestPoint returns the point inside b closest to p.
func (b AABB) ClosestPoint(p Vec3) Vec3 {
	return p.ClampBox(b.Min, b.Max)
}

// Distance returns the Euclidean distance from p to the box (zero if inside).
func (b AABB) Distance(p Vec3) float64 {
	return b.ClosestPoint(p).Dist(p)
}

// SegmentIntersects reports whether the segment from a to b2 passes through
// the box, using the slab method. Touching the boundary counts as an
// intersection.
func (b AABB) SegmentIntersects(a, b2 Vec3) bool {
	d := b2.Sub(a)
	tmin, tmax := 0.0, 1.0
	for axis := 0; axis < 3; axis++ {
		var origin, dir, lo, hi float64
		switch axis {
		case 0:
			origin, dir, lo, hi = a.X, d.X, b.Min.X, b.Max.X
		case 1:
			origin, dir, lo, hi = a.Y, d.Y, b.Min.Y, b.Max.Y
		default:
			origin, dir, lo, hi = a.Z, d.Z, b.Min.Z, b.Max.Z
		}
		if math.Abs(dir) < 1e-12 {
			if origin < lo || origin > hi {
				return false
			}
			continue
		}
		t1 := (lo - origin) / dir
		t2 := (hi - origin) / dir
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		tmin = math.Max(tmin, t1)
		tmax = math.Min(tmax, t2)
		if tmin > tmax {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (b AABB) String() string {
	return fmt.Sprintf("[%v .. %v]", b.Min, b.Max)
}

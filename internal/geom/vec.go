// Package geom provides the 3D geometry substrate used throughout the SOTER
// reproduction: vectors, axis-aligned boxes, obstacle workspaces mirroring the
// paper's city map (Figure 2), and occupancy grids used by the certified
// planner and the grid-based backward-reachability analysis.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or vector in 3D space. Coordinates are metres.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Zero is the origin / zero vector.
var Zero = Vec3{}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Unit returns v normalised to unit length. The zero vector is returned
// unchanged so callers never divide by zero.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return Vec3{}
	}
	return v.Scale(1 / n)
}

// ClampNorm returns v with its length clamped to at most maxNorm.
func (v Vec3) ClampNorm(maxNorm float64) Vec3 {
	if maxNorm <= 0 {
		return Vec3{}
	}
	n := v.Norm()
	if n <= maxNorm {
		return v
	}
	return v.Scale(maxNorm / n)
}

// ClampBox clamps each component of v into [lo, hi] component-wise.
func (v Vec3) ClampBox(lo, hi Vec3) Vec3 {
	return Vec3{
		X: clamp(v.X, lo.X, hi.X),
		Y: clamp(v.Y, lo.Y, hi.Y),
		Z: clamp(v.Z, lo.Z, hi.Z),
	}
}

// Abs returns the component-wise absolute value of v.
func (v Vec3) Abs() Vec3 {
	return Vec3{math.Abs(v.X), math.Abs(v.Y), math.Abs(v.Z)}
}

// Min returns the component-wise minimum of v and w.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

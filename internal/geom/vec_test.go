package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func vecAlmostEq(a, b Vec3) bool {
	return almostEq(a.X, b.X) && almostEq(a.Y, b.Y) && almostEq(a.Z, b.Z)
}

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(-4, 5, 0.5)
	if got := a.Add(b); !vecAlmostEq(got, V(-3, 7, 3.5)) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); !vecAlmostEq(got, V(5, -3, 2.5)) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); !vecAlmostEq(got, V(2, 4, 6)) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); !almostEq(got, -4+10+1.5) {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Neg(); !vecAlmostEq(got, V(-1, -2, -3)) {
		t.Errorf("Neg = %v", got)
	}
	if got := V(3, 4, 0).Norm(); !almostEq(got, 5) {
		t.Errorf("Norm = %v", got)
	}
	if got := V(3, 4, 0).Dist(V(0, 0, 0)); !almostEq(got, 5) {
		t.Errorf("Dist = %v", got)
	}
}

func TestVecUnit(t *testing.T) {
	if got := V(0, 0, 0).Unit(); got != Zero {
		t.Errorf("Unit of zero = %v, want zero", got)
	}
	u := V(10, 0, 0).Unit()
	if !vecAlmostEq(u, V(1, 0, 0)) {
		t.Errorf("Unit = %v", u)
	}
}

func TestVecClampNorm(t *testing.T) {
	tests := []struct {
		name string
		v    Vec3
		max  float64
		want Vec3
	}{
		{"under cap", V(1, 0, 0), 5, V(1, 0, 0)},
		{"over cap", V(10, 0, 0), 5, V(5, 0, 0)},
		{"zero cap", V(10, 0, 0), 0, Zero},
		{"negative cap", V(10, 0, 0), -1, Zero},
		{"zero vector", Zero, 5, Zero},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.ClampNorm(tt.max); !vecAlmostEq(got, tt.want) {
				t.Errorf("ClampNorm = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVecClampBox(t *testing.T) {
	lo, hi := V(-1, -1, -1), V(1, 1, 1)
	if got := V(2, 0.5, -3).ClampBox(lo, hi); !vecAlmostEq(got, V(1, 0.5, -1)) {
		t.Errorf("ClampBox = %v", got)
	}
}

func TestVecMinMaxAbs(t *testing.T) {
	a, b := V(1, -2, 3), V(-1, 2, 3)
	if got := a.Min(b); !vecAlmostEq(got, V(-1, -2, 3)) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); !vecAlmostEq(got, V(1, 2, 3)) {
		t.Errorf("Max = %v", got)
	}
	if got := a.Abs(); !vecAlmostEq(got, V(1, 2, 3)) {
		t.Errorf("Abs = %v", got)
	}
}

// Property: ClampNorm never increases the norm and never exceeds the cap.
func TestVecClampNormProperty(t *testing.T) {
	f := func(x, y, z, capRaw float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) || math.IsNaN(capRaw) {
			return true
		}
		v := V(math.Mod(x, 1e6), math.Mod(y, 1e6), math.Mod(z, 1e6))
		cap := math.Abs(math.Mod(capRaw, 1e6))
		got := v.ClampNorm(cap)
		return got.Norm() <= cap+1e-6 && got.Norm() <= v.Norm()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Unit has norm 1 (or is zero), and scaling it by the original
// norm recovers the vector.
func TestVecUnitProperty(t *testing.T) {
	f := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) {
			return true
		}
		v := V(math.Mod(x, 1e3), math.Mod(y, 1e3), math.Mod(z, 1e3))
		u := v.Unit()
		if v.Norm() == 0 {
			return u == Zero
		}
		return almostEqTol(u.Norm(), 1, 1e-6) && vecAlmostEqTol(u.Scale(v.Norm()), v, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Dist.
func TestVecTriangleInequality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz float64) bool {
		for _, v := range []float64{ax, ay, az, bx, by, bz, cx, cy, cz} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := V(math.Mod(ax, 1e4), math.Mod(ay, 1e4), math.Mod(az, 1e4))
		b := V(math.Mod(bx, 1e4), math.Mod(by, 1e4), math.Mod(bz, 1e4))
		c := V(math.Mod(cx, 1e4), math.Mod(cy, 1e4), math.Mod(cz, 1e4))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func almostEqTol(a, b, tol float64) bool { return math.Abs(a-b) < tol }

func vecAlmostEqTol(a, b Vec3, tol float64) bool {
	return almostEqTol(a.X, b.X, tol) && almostEqTol(a.Y, b.Y, tol) && almostEqTol(a.Z, b.Z, tol)
}

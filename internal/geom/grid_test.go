package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func testGrid(t *testing.T, res, margin float64) (*Grid, *Workspace) {
	t.Helper()
	ws := testWorkspace(t)
	g, err := NewGrid(ws, res, margin)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g, ws
}

func TestNewGridValidation(t *testing.T) {
	ws := testWorkspace(t)
	if _, err := NewGrid(ws, 0, 0); err == nil {
		t.Error("expected error for zero resolution")
	}
	if _, err := NewGrid(ws, -1, 0); err == nil {
		t.Error("expected error for negative resolution")
	}
}

func TestGridDims(t *testing.T) {
	g, _ := testGrid(t, 1.0, 0)
	nx, ny, nz := g.Dims()
	if nx != 20 || ny != 20 || nz != 10 {
		t.Errorf("Dims = %d,%d,%d", nx, ny, nz)
	}
	if g.NumCells() != 20*20*10 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
}

func TestGridOccupancyMatchesWorkspace(t *testing.T) {
	g, ws := testGrid(t, 0.5, 0)
	nx, ny, nz := g.Dims()
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				c := Cell{x, y, z}
				want := !ws.FreeWithMargin(g.CellCenter(c), 0)
				if got := g.Occupied(c); got != want {
					t.Fatalf("Occupied(%v) = %v, want %v (center %v)", c, got, want, g.CellCenter(c))
				}
			}
		}
	}
}

func TestGridCellOfRoundTrip(t *testing.T) {
	g, _ := testGrid(t, 0.5, 0)
	nx, ny, nz := g.Dims()
	for _, c := range []Cell{{0, 0, 0}, {nx - 1, ny - 1, nz - 1}, {3, 7, 2}} {
		if got := g.CellOf(g.CellCenter(c)); got != c {
			t.Errorf("CellOf(CellCenter(%v)) = %v", c, got)
		}
	}
}

func TestGridOutOfBounds(t *testing.T) {
	g, _ := testGrid(t, 1.0, 0)
	if !g.Occupied(Cell{-1, 0, 0}) {
		t.Error("out-of-grid cell should count as occupied")
	}
	if _, ok := g.Index(Cell{0, 0, 100}); ok {
		t.Error("Index of invalid cell should fail")
	}
}

func TestGridNeighbors(t *testing.T) {
	g, _ := testGrid(t, 1.0, 0)
	n26 := g.Neighbors26(Cell{5, 5, 5}, nil)
	if len(n26) != 26 {
		t.Errorf("interior cell has %d 26-neighbors, want 26", len(n26))
	}
	n26c := g.Neighbors26(Cell{0, 0, 0}, nil)
	if len(n26c) != 7 {
		t.Errorf("corner cell has %d 26-neighbors, want 7", len(n26c))
	}
}

// Property: CellOf maps any in-bounds point to a valid cell whose center is
// within half a cell diagonal.
func TestCellOfProperty(t *testing.T) {
	g, ws := testGrid(t, 0.5, 0)
	f := func(x, y, z float64) bool {
		p := V(math.Mod(math.Abs(x), 19.9), math.Mod(math.Abs(y), 19.9), math.Mod(math.Abs(z), 9.9))
		if !ws.Bounds().Contains(p) {
			return true
		}
		c := g.CellOf(p)
		if !g.InGrid(c) {
			return false
		}
		return g.CellCenter(c).Dist(p) <= g.Resolution()*math.Sqrt(3)/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

package geom

import (
	"fmt"
	"math"
)

// Grid is a uniform 3D occupancy grid over a workspace. It is the substrate
// for the certified A* planner (the safe motion planner of Section V-C) and
// for the grid-based backward-reachability computation that stands in for the
// Level-Set Toolbox (Section III-C, "From theory to practice").
type Grid struct {
	origin     Vec3
	res        float64
	nx, ny, nz int
	occupied   []bool
}

// Cell identifies a grid cell by integer coordinates.
type Cell struct {
	X, Y, Z int
}

// NewGrid rasterises the workspace at the given resolution, marking cells
// whose centre is within margin of an obstacle (or outside the deflated
// bounds) as occupied.
func NewGrid(w *Workspace, res, margin float64) (*Grid, error) {
	if res <= 0 {
		return nil, fmt.Errorf("grid resolution %v must be positive", res)
	}
	size := w.Bounds().Size()
	nx := int(math.Ceil(size.X / res))
	ny := int(math.Ceil(size.Y / res))
	nz := int(math.Ceil(size.Z / res))
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("workspace %v too small for resolution %v", w.Bounds(), res)
	}
	g := &Grid{
		origin:   w.Bounds().Min,
		res:      res,
		nx:       nx,
		ny:       ny,
		nz:       nz,
		occupied: make([]bool, nx*ny*nz),
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				c := Cell{x, y, z}
				p := g.CellCenter(c)
				if !w.FreeWithMargin(p, margin) {
					g.occupied[g.index(c)] = true
				}
			}
		}
	}
	return g, nil
}

// Dims returns the number of cells along each axis.
func (g *Grid) Dims() (nx, ny, nz int) { return g.nx, g.ny, g.nz }

// Resolution returns the edge length of a cell in metres.
func (g *Grid) Resolution() float64 { return g.res }

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return len(g.occupied) }

// InGrid reports whether the cell coordinates are valid.
func (g *Grid) InGrid(c Cell) bool {
	return c.X >= 0 && c.X < g.nx && c.Y >= 0 && c.Y < g.ny && c.Z >= 0 && c.Z < g.nz
}

// Occupied reports whether the cell is blocked. Out-of-grid cells count as
// occupied so planners treat the boundary as a wall.
func (g *Grid) Occupied(c Cell) bool {
	if !g.InGrid(c) {
		return true
	}
	return g.occupied[g.index(c)]
}

// OccupiedAt reports whether the cell with linear index i is blocked. The
// index must be in [0, NumCells).
func (g *Grid) OccupiedAt(i int) bool { return g.occupied[i] }

// CellCenter returns the world-space centre of the cell.
func (g *Grid) CellCenter(c Cell) Vec3 {
	return Vec3{
		X: g.origin.X + (float64(c.X)+0.5)*g.res,
		Y: g.origin.Y + (float64(c.Y)+0.5)*g.res,
		Z: g.origin.Z + (float64(c.Z)+0.5)*g.res,
	}
}

// CellOf returns the cell containing the world point p. The result may be out
// of the grid; check with InGrid.
func (g *Grid) CellOf(p Vec3) Cell {
	return Cell{
		X: int(math.Floor((p.X - g.origin.X) / g.res)),
		Y: int(math.Floor((p.Y - g.origin.Y) / g.res)),
		Z: int(math.Floor((p.Z - g.origin.Z) / g.res)),
	}
}

// Neighbors26 appends the 26-connected neighbours of c to dst and returns it.
func (g *Grid) Neighbors26(c Cell, dst []Cell) []Cell {
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				n := Cell{c.X + dx, c.Y + dy, c.Z + dz}
				if g.InGrid(n) {
					dst = append(dst, n)
				}
			}
		}
	}
	return dst
}

// Index returns the linear index of a valid cell, and false for a cell
// outside the grid — the key callers address per-cell data by.
func (g *Grid) Index(c Cell) (int, bool) {
	if !g.InGrid(c) {
		return 0, false
	}
	return g.index(c), true
}

// CellAt returns the cell with linear index i — the inverse of Index. The
// index must be in [0, NumCells).
func (g *Grid) CellAt(i int) Cell { return g.cellAt(i) }

func (g *Grid) index(c Cell) int {
	return (c.Z*g.ny+c.Y)*g.nx + c.X
}

func (g *Grid) cellAt(i int) Cell {
	x := i % g.nx
	y := (i / g.nx) % g.ny
	z := i / (g.nx * g.ny)
	return Cell{x, y, z}
}

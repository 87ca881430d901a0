package plan

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// AStar is the certified safe planner: 26-connected A* over an occupancy
// grid with inflated obstacles, followed by margin-checked shortcut
// smoothing and a final validation pass. Its output is safe by construction:
// every returned plan passes Validate, or an error is returned.
//
// The grid is immutable and may be shared (see AStarGrid, NewAStarOnGrid);
// the search arrays are per-planner scratch, kept across Plan calls, so an
// AStar serves one goroutine at a time — a mission stack owns its own.
type AStar struct {
	ws     *geom.Workspace
	grid   *geom.Grid
	margin float64

	// Search scratch, sized to the grid on first use and reset per Plan.
	gScore   []float64
	cameFrom []int32
	closed   []bool
	open     asHeap
	nbuf     []geom.Cell
}

var _ Planner = (*AStar)(nil)

// NewAStar builds the planner. res is the grid resolution; margin is the
// clearance required of the final plan (the grid is inflated by margin plus
// half a cell diagonal so that cell-centre paths respect the margin).
func NewAStar(ws *geom.Workspace, res, margin float64) (*AStar, error) {
	grid, err := AStarGrid(ws, res, margin)
	if err != nil {
		return nil, err
	}
	return NewAStarOnGrid(ws, grid, margin), nil
}

// AStarGrid builds the inflated occupancy grid NewAStar searches for the
// given resolution and margin. The grid is immutable, so many planners may
// share it.
func AStarGrid(ws *geom.Workspace, res, margin float64) (*geom.Grid, error) {
	inflate := margin + res*math.Sqrt(3)/2
	grid, err := geom.NewGrid(ws, res, inflate)
	if err != nil {
		return nil, fmt.Errorf("astar grid: %w", err)
	}
	return grid, nil
}

// NewAStarOnGrid builds a planner over a grid from AStarGrid(ws, res,
// margin), with its own search scratch; it plans exactly as NewAStar(ws,
// res, margin) does.
func NewAStarOnGrid(ws *geom.Workspace, grid *geom.Grid, margin float64) *AStar {
	return &AStar{ws: ws, grid: grid, margin: margin}
}

// asItem is an open-list entry: a cell's linear grid index and its f-score.
type asItem struct {
	ci int32
	f  float64
}

// asHeap is a binary min-heap on f that replicates container/heap's sift
// algorithms exactly — strict Less, right child preferred only on a strict
// win, Pop swapping root with the last element before sifting down — so the
// pop order (and therefore every A* tie-break) is bit-identical to the
// previous container/heap implementation while staying flat and unboxed.
type asHeap []asItem

func (h *asHeap) push(it asItem) {
	s := append(*h, it)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].f < s[i].f) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

func (h *asHeap) pop() asItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].f < s[j1].f {
			j = j2
		}
		if !(s[j].f < s[i].f) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}

// Plan implements Planner. The search runs over flat arrays indexed by the
// grid's linear cell index — no per-node map or interface allocations — and
// reuses them from the previous call.
func (a *AStar) Plan(start, goal geom.Vec3) (Plan, error) {
	sc, err := a.nearestFreeCell(start)
	if err != nil {
		return nil, fmt.Errorf("astar start %v: %w", start, err)
	}
	gc, err := a.nearestFreeCell(goal)
	if err != nil {
		return nil, fmt.Errorf("astar goal %v: %w", goal, err)
	}

	gScore, cameFrom, closed := a.resetScratch()
	goalP := a.grid.CellCenter(gc)

	h := func(c geom.Cell) float64 { return a.grid.CellCenter(c).Dist(goalP) }
	si, _ := a.grid.Index(sc)
	gi, _ := a.grid.Index(gc)
	open := &a.open
	open.push(asItem{ci: int32(si), f: h(sc)})
	gScore[si] = 0

	for len(*open) > 0 {
		ci := int(open.pop().ci)
		if closed[ci] {
			continue
		}
		if ci == gi {
			return a.reconstruct(cameFrom, ci, start, goal)
		}
		closed[ci] = true
		cur := a.grid.CellAt(ci)
		curP := a.grid.CellCenter(cur)
		a.nbuf = a.grid.Neighbors26(cur, a.nbuf[:0])
		for _, nb := range a.nbuf {
			ni, _ := a.grid.Index(nb)
			if a.grid.Occupied(nb) || closed[ni] {
				continue
			}
			tentative := gScore[ci] + curP.Dist(a.grid.CellCenter(nb))
			if tentative < gScore[ni] {
				gScore[ni] = tentative
				cameFrom[ni] = int32(ci)
				open.push(asItem{ci: int32(ni), f: tentative + h(nb)})
			}
		}
	}
	return nil, fmt.Errorf("astar %v → %v: %w", start, goal, ErrNoPath)
}

// resetScratch returns the search arrays, sized to the grid, in their
// initial state: every g-score +Inf, no predecessors, nothing closed.
func (a *AStar) resetScratch() (gScore []float64, cameFrom []int32, closed []bool) {
	if n := a.grid.NumCells(); len(a.gScore) != n {
		a.gScore, a.cameFrom, a.closed = make([]float64, n), make([]int32, n), make([]bool, n)
		a.open = make(asHeap, 0, 1024)
	}
	inf := math.Inf(1)
	for i := range a.gScore {
		a.gScore[i] = inf
	}
	for i := range a.cameFrom {
		a.cameFrom[i] = -1
	}
	clear(a.closed)
	a.open = a.open[:0]
	return a.gScore, a.cameFrom, a.closed
}

func (a *AStar) reconstruct(cameFrom []int32, cur int, start, goal geom.Vec3) (Plan, error) {
	var rev []geom.Vec3
	for ci := cur; ci >= 0; ci = int(cameFrom[ci]) {
		rev = append(rev, a.grid.CellCenter(a.grid.CellAt(ci)))
	}
	p := make(Plan, 0, len(rev)+2)
	p = append(p, start)
	for i := len(rev) - 1; i >= 0; i-- {
		p = append(p, rev[i])
	}
	p = append(p, goal)
	p = Shortcut(p, a.ws, a.margin)
	if err := Validate(p, a.ws, a.margin, start, goal, 1e-6); err != nil {
		return nil, fmt.Errorf("astar produced invalid plan (bug): %w", err)
	}
	return p, nil
}

// nearestFreeCell returns the cell of p, or — when p's own cell is occupied
// (the query point hugs an inflated obstacle) — the nearest free cell within
// a small search radius.
func (a *AStar) nearestFreeCell(p geom.Vec3) (geom.Cell, error) {
	c := a.grid.CellOf(p)
	if a.grid.InGrid(c) && !a.grid.Occupied(c) {
		return c, nil
	}
	best := geom.Cell{}
	bestD := math.Inf(1)
	found := false
	const r = 3
	for dz := -r; dz <= r; dz++ {
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				n := geom.Cell{X: c.X + dx, Y: c.Y + dy, Z: c.Z + dz}
				if !a.grid.InGrid(n) || a.grid.Occupied(n) {
					continue
				}
				if d := a.grid.CellCenter(n).Dist(p); d < bestD {
					bestD, best, found = d, n, true
				}
			}
		}
	}
	if !found {
		return geom.Cell{}, fmt.Errorf("no free cell near %v: %w", p, ErrNoPath)
	}
	return best, nil
}

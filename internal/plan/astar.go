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
// An AStar holds only immutable data (workspace, grid, margin), so one
// planner may serve any number of goroutines and missions at once. Each Plan
// call borrows its search arrays from a process-wide free list and returns
// them when it ends.
type AStar struct {
	ws     *geom.Workspace
	grid   *geom.Grid
	margin float64
}

var _ Planner = (*AStar)(nil)

// NewAStar builds the planner. res is the grid resolution; margin is the
// clearance required of the final plan (the grid is inflated by margin plus
// half a cell diagonal so that cell-centre paths respect the margin).
func NewAStar(ws *geom.Workspace, res, margin float64) (*AStar, error) {
	inflate := margin + res*math.Sqrt(3)/2
	grid, err := geom.NewGrid(ws, res, inflate)
	if err != nil {
		return nil, fmt.Errorf("astar grid: %w", err)
	}
	return &AStar{ws: ws, grid: grid, margin: margin}, nil
}

// astarScratch is one search's working memory, indexed by a grid's linear
// cell index and sized to the largest grid it has served. A cell's mark
// stamps what the current search knows of it: 2·gen once the search has
// seen it (its gScore and cameFrom entries are this search's), 2·gen+1 once
// it is closed. Any other mark means unseen: the cell's g-score is +Inf and
// its array entries are stale. A search therefore starts by bumping gen
// rather than refilling the arrays; the marks are cleared only when gen
// wraps, once every astarMaxGen searches.
type astarScratch struct {
	gen      uint16
	mark     []uint16
	gScore   []float64
	cameFrom []int32
	open     asHeap
}

// astarMaxGen is the last generation whose closed stamp fits a uint16 mark.
const astarMaxGen = math.MaxUint16 / 2

// astarScratches is the free list every AStar borrows its scratch from.
var astarScratches freeList[astarScratch]

// begin readies s for a search over n cells and returns the search's seen
// stamp; its closed stamp is one more.
func (s *astarScratch) begin(n int) uint16 {
	if len(s.mark) < n {
		s.mark = make([]uint16, n)
		s.gScore = make([]float64, n)
		s.cameFrom = make([]int32, n)
		s.gen = 0
	}
	if s.gen == astarMaxGen {
		clear(s.mark)
		s.gen = 0
	}
	s.gen++
	s.open = s.open[:0]
	return 2 * s.gen
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
// grid's linear cell index — no per-node map or interface allocations —
// and touches only the cells it visits.
func (a *AStar) Plan(start, goal geom.Vec3) (Plan, error) {
	sc, err := a.nearestFreeCell(start)
	if err != nil {
		return nil, fmt.Errorf("astar start %v: %w", start, err)
	}
	gc, err := a.nearestFreeCell(goal)
	if err != nil {
		return nil, fmt.Errorf("astar goal %v: %w", goal, err)
	}

	s := astarScratches.get()
	defer astarScratches.put(s)
	seen := s.begin(a.grid.NumCells())
	closed := seen + 1
	mark, gScore, cameFrom := s.mark, s.gScore, s.cameFrom
	nx, ny, nz := a.grid.Dims()
	goalP := a.grid.CellCenter(gc)

	h := func(c geom.Cell) float64 { return a.grid.CellCenter(c).Dist(goalP) }
	si, _ := a.grid.Index(sc)
	gi, _ := a.grid.Index(gc)
	open := &s.open
	open.push(asItem{ci: int32(si), f: h(sc)})
	mark[si], gScore[si], cameFrom[si] = seen, 0, -1

	for len(*open) > 0 {
		ci := int(open.pop().ci)
		if mark[ci] == closed {
			continue
		}
		if ci == gi {
			return a.reconstruct(cameFrom, ci, start, goal)
		}
		mark[ci] = closed
		cur := a.grid.CellAt(ci)
		curP := a.grid.CellCenter(cur)
		// The neighbours in Neighbors26's order, addressed by linear index.
		for dz := -1; dz <= 1; dz++ {
			z := cur.Z + dz
			if z < 0 || z >= nz {
				continue
			}
			for dy := -1; dy <= 1; dy++ {
				y := cur.Y + dy
				if y < 0 || y >= ny {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					x := cur.X + dx
					ni := ci + (dz*ny+dy)*nx + dx
					if x < 0 || x >= nx || ni == ci || mark[ni] == closed || a.grid.OccupiedAt(ni) {
						continue
					}
					nb := geom.Cell{X: x, Y: y, Z: z}
					// An unseen cell's g-score is +Inf, which the finite
					// tentative score always beats.
					tentative := gScore[ci] + curP.Dist(a.grid.CellCenter(nb))
					if mark[ni] != seen || tentative < gScore[ni] {
						mark[ni], gScore[ni], cameFrom[ni] = seen, tentative, int32(ci)
						open.push(asItem{ci: int32(ni), f: tentative + h(nb)})
					}
				}
			}
		}
	}
	return nil, fmt.Errorf("astar %v → %v: %w", start, goal, ErrNoPath)
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

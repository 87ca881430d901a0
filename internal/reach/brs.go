package reach

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
)

// BackwardReachSet is the grid-based analogue of the Level-Set Toolbox
// computation used in Section V-A: for every grid cell it stores the minimum
// time in which the plant, moving at up to vmax, can reach an occupied
// (unsafe) cell. The set of cells with time-to-unsafe ≤ 2Δ is the backward
// reachable set from ¬φsafe in 2Δ (the yellow region of Figure 12b); its
// complement intersected with the free space approximates R(φsafe, 2Δ), the
// green φsafer region.
//
// It is computed with a Dijkstra sweep over the 26-connected grid, with edge
// costs equal to Euclidean cell-centre distance divided by vmax — a
// fast-marching-style approximation of the continuous minimum-time-to-reach
// value function.
type BackwardReachSet struct {
	grid   *geom.Grid
	vmax   float64
	timeTo []float64 // seconds to reach an occupied cell; +Inf if unreachable
}

// NewBackwardReachSet computes the time-to-unsafe field over the grid.
func NewBackwardReachSet(grid *geom.Grid, vmax float64) (*BackwardReachSet, error) {
	if grid == nil {
		return nil, fmt.Errorf("nil grid")
	}
	if vmax <= 0 {
		return nil, fmt.Errorf("vmax %v must be positive", vmax)
	}
	b := &BackwardReachSet{
		grid:   grid,
		vmax:   vmax,
		timeTo: make([]float64, grid.NumCells()),
	}
	b.compute()
	return b, nil
}

type brsItem struct {
	cell geom.Cell
	t    float64
}

type brsHeap []brsItem

func (h brsHeap) Len() int           { return len(h) }
func (h brsHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h brsHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *brsHeap) Push(x any)        { *h = append(*h, x.(brsItem)) }
func (h *brsHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

func (b *BackwardReachSet) compute() {
	nx, ny, nz := b.grid.Dims()
	for i := range b.timeTo {
		b.timeTo[i] = math.Inf(1)
	}
	var pq brsHeap
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				c := geom.Cell{X: x, Y: y, Z: z}
				if b.grid.Occupied(c) {
					i, _ := b.grid.Index(c)
					b.timeTo[i] = 0
					pq = append(pq, brsItem{cell: c, t: 0})
				}
			}
		}
	}
	heap.Init(&pq)
	res := b.grid.Resolution()
	var nbuf []geom.Cell
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(brsItem)
		ci, _ := b.grid.Index(it.cell)
		if it.t > b.timeTo[ci] {
			continue // stale entry
		}
		nbuf = b.grid.Neighbors26(it.cell, nbuf[:0])
		for _, n := range nbuf {
			dx := float64(n.X - it.cell.X)
			dy := float64(n.Y - it.cell.Y)
			dz := float64(n.Z - it.cell.Z)
			step := res * math.Sqrt(dx*dx+dy*dy+dz*dz) / b.vmax
			ni, _ := b.grid.Index(n)
			if nt := it.t + step; nt < b.timeTo[ni] {
				b.timeTo[ni] = nt
				heap.Push(&pq, brsItem{cell: n, t: nt})
			}
		}
	}
}

// timeToUnsafe returns the minimum time (seconds) in which the plant can
// reach an unsafe cell from p, and +Inf when unreachable. Points outside the
// grid report zero (the boundary is unsafe).
func (b *BackwardReachSet) timeToUnsafe(p geom.Vec3) float64 {
	c := b.grid.CellOf(p)
	i, ok := b.grid.Index(c)
	if !ok {
		return 0
	}
	return b.timeTo[i]
}

// CanEscapeWithin reports whether the plant can leave the safe region within
// t starting from p — the grid analogue of Reach(s, *, t) ⊄ φsafe for a
// velocity-bounded plant.
func (b *BackwardReachSet) CanEscapeWithin(p geom.Vec3, t time.Duration) bool {
	return b.timeToUnsafe(p) <= t.Seconds()
}

// FractionEscapable returns the fraction of free cells whose time-to-unsafe
// is at most t — a summary statistic used by the Figure 12b bench to report
// the relative sizes of the yellow/green regions.
func (b *BackwardReachSet) FractionEscapable(t time.Duration) float64 {
	free, esc := 0, 0
	sec := t.Seconds()
	nx, ny, nz := b.grid.Dims()
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				c := geom.Cell{X: x, Y: y, Z: z}
				if b.grid.Occupied(c) {
					continue
				}
				free++
				i, _ := b.grid.Index(c)
				if b.timeTo[i] <= sec {
					esc++
				}
			}
		}
	}
	if free == 0 {
		return 0
	}
	return float64(esc) / float64(free)
}

package geom

import (
	"math"
	"sync"
	"sync/atomic"
)

// Index is a per-margin query accelerator for a Workspace. It precomputes
// everything a Free/BoxFree/SegmentFree query at one fixed margin would
// otherwise recompute per call — the margin-inflated obstacle boxes, the
// margin-deflated bounds — and adds a coarse uniform grid over the bounds
// classifying each cell as known-free (no inflated obstacle touches it) or
// as a boundary cell carrying the exact list of candidate obstacles.
//
// Queries answer through the bitmap fast path when every covered cell is
// known-free and fall back to exact tests against the per-cell candidate
// lists otherwise, so results are bit-identical to the naive linear scan
// (FuzzIndexedQueryEquivalence holds the two paths together). The index is
// immutable after construction and safe for concurrent use — fleet workers
// share one workspace's indexes across missions.
type Index struct {
	margin   float64
	inner    AABB   // bounds.Expand(-margin), precomputed once
	inflated []AABB // obstacles[i].Expand(margin), precomputed once

	// Coarse occupancy grid over the workspace bounds. Cell coordinates are
	// computed with clamped floors, so out-of-bounds geometry (possible with
	// negative margins) conservatively lands in edge cells on both the build
	// and the query side, keeping coverage exact.
	origin     Vec3
	cx, cy, cz float64 // cell edge lengths (0 on degenerate axes)
	nx, ny, nz int
	free       []bool  // cell → no inflated obstacle overlaps the cell
	start      []int32 // CSR offsets into cand, len = ncells+1
	cand       []int32 // candidate obstacle indices per cell
}

// indexTargetCell is the aimed-for coarse cell edge in workspace units
// (metres here); indexMaxCellsPerAxis bounds memory for huge workspaces.
const (
	indexTargetCell      = 2.0
	indexMaxCellsPerAxis = 48
)

func axisCells(extent float64) (int, float64) {
	if !(extent > 0) {
		return 1, 0
	}
	n := int(math.Ceil(extent / indexTargetCell))
	if n < 1 {
		n = 1
	}
	if n > indexMaxCellsPerAxis {
		n = indexMaxCellsPerAxis
	}
	return n, extent / float64(n)
}

// axisLo maps a coordinate to a clamped lower cell index. Non-finite input
// conservatively maps to 0.
func axisLo(v, origin, cell float64, n int) int {
	if cell <= 0 || n <= 1 {
		return 0
	}
	f := math.Floor((v - origin) / cell)
	if f > 0 {
		if f >= float64(n-1) {
			return n - 1
		}
		return int(f)
	}
	return 0
}

// axisHi maps a coordinate to a clamped upper cell index. Non-finite input
// conservatively maps to n-1.
func axisHi(v, origin, cell float64, n int) int {
	if cell <= 0 || n <= 1 {
		return 0
	}
	f := math.Floor((v - origin) / cell)
	if f < float64(n-1) {
		if f <= 0 {
			return 0
		}
		return int(f)
	}
	return n - 1
}

func buildIndex(bounds AABB, obstacles []AABB, margin float64) *Index {
	x := &Index{
		margin: margin,
		inner:  bounds.Expand(-margin),
		origin: bounds.Min,
	}
	x.inflated = make([]AABB, len(obstacles))
	for i, o := range obstacles {
		x.inflated[i] = o.Expand(margin)
	}
	size := bounds.Size()
	x.nx, x.cx = axisCells(size.X)
	x.ny, x.cy = axisCells(size.Y)
	x.nz, x.cz = axisCells(size.Z)
	ncells := x.nx * x.ny * x.nz

	x.free = make([]bool, ncells)
	for i := range x.free {
		x.free[i] = true
	}
	// CSR build: count candidates per cell, prefix-sum, fill.
	counts := make([]int32, ncells+1)
	total := 0
	// Obstacles rasterize over their NORMALIZED extent: a negative margin can
	// invert a box (Min > Max), and while Contains/Intersects treat such a box
	// as empty, SegmentIntersects' slab method sees its normalization — so the
	// candidate lists must cover it for segment queries to stay exact.
	for _, o := range x.inflated {
		lox, hix, loy, hiy, loz, hiz, ok := x.cellRange(o.Min.Min(o.Max), o.Min.Max(o.Max))
		if !ok {
			continue
		}
		for cz := loz; cz <= hiz; cz++ {
			for cy := loy; cy <= hiy; cy++ {
				base := (cz*x.ny + cy) * x.nx
				for cxi := lox; cxi <= hix; cxi++ {
					counts[base+cxi+1]++
					total++
				}
			}
		}
	}
	for i := 1; i <= ncells; i++ {
		counts[i] += counts[i-1]
	}
	x.start = counts
	x.cand = make([]int32, total)
	fill := make([]int32, ncells)
	for oi, o := range x.inflated {
		lox, hix, loy, hiy, loz, hiz, ok := x.cellRange(o.Min.Min(o.Max), o.Min.Max(o.Max))
		if !ok {
			continue
		}
		for cz := loz; cz <= hiz; cz++ {
			for cy := loy; cy <= hiy; cy++ {
				base := (cz*x.ny + cy) * x.nx
				for cxi := lox; cxi <= hix; cxi++ {
					ci := base + cxi
					x.free[ci] = false
					x.cand[x.start[ci]+fill[ci]] = int32(oi)
					fill[ci]++
				}
			}
		}
	}
	return x
}

// cellRange returns the clamped inclusive cell range covered by the box
// [min, max]; ok is false for an empty box (possible after a negative-margin
// inflation), which covers nothing.
func (x *Index) cellRange(min, max Vec3) (lox, hix, loy, hiy, loz, hiz int, ok bool) {
	if min.X > max.X || min.Y > max.Y || min.Z > max.Z {
		return 0, 0, 0, 0, 0, 0, false
	}
	lox = axisLo(min.X, x.origin.X, x.cx, x.nx)
	hix = axisHi(max.X, x.origin.X, x.cx, x.nx)
	loy = axisLo(min.Y, x.origin.Y, x.cy, x.ny)
	hiy = axisHi(max.Y, x.origin.Y, x.cy, x.ny)
	loz = axisLo(min.Z, x.origin.Z, x.cz, x.nz)
	hiz = axisHi(max.Z, x.origin.Z, x.cz, x.nz)
	return lox, hix, loy, hiy, loz, hiz, true
}

func (x *Index) cellOf(p Vec3) int {
	cxi := axisLo(p.X, x.origin.X, x.cx, x.nx)
	cyi := axisLo(p.Y, x.origin.Y, x.cy, x.ny)
	czi := axisLo(p.Z, x.origin.Z, x.cz, x.nz)
	return (czi*x.ny+cyi)*x.nx + cxi
}

// Free reports whether p keeps at least the index margin of clearance from
// every obstacle and the workspace boundary — Workspace.FreeWithMargin at
// the index's margin, allocation-free.
func (x *Index) Free(p Vec3) bool {
	if !x.inner.Contains(p) {
		return false
	}
	ci := x.cellOf(p)
	if x.free[ci] {
		return true
	}
	for _, oi := range x.cand[x.start[ci]:x.start[ci+1]] {
		if x.inflated[oi].Contains(p) {
			return false
		}
	}
	return true
}

// obstacleMask dedups candidate obstacle indices across cells without
// allocating, for obstacle sets up to 256; larger sets skip dedup (the
// exact tests stay correct, some may just repeat).
type obstacleMask [4]uint64

func (m *obstacleMask) visit(oi int32) bool {
	if oi >= 256 {
		return true
	}
	w, bit := oi>>6, uint(oi&63)
	if m[w]&(1<<bit) != 0 {
		return false
	}
	m[w] |= 1 << bit
	return true
}

// BoxFree reports whether box b stays inside the deflated bounds and
// intersects no inflated obstacle — Workspace.BoxFree at the index's margin,
// allocation-free.
func (x *Index) BoxFree(b AABB) bool {
	if !x.inner.ContainsBox(b) {
		return false
	}
	lox, hix, loy, hiy, loz, hiz, ok := x.cellRange(b.Min, b.Max)
	if !ok {
		return true
	}
	allFree := true
scan:
	for cz := loz; cz <= hiz; cz++ {
		for cy := loy; cy <= hiy; cy++ {
			base := (cz*x.ny + cy) * x.nx
			for cxi := lox; cxi <= hix; cxi++ {
				if !x.free[base+cxi] {
					allFree = false
					break scan
				}
			}
		}
	}
	if allFree {
		return true
	}
	var mask obstacleMask
	for cz := loz; cz <= hiz; cz++ {
		for cy := loy; cy <= hiy; cy++ {
			base := (cz*x.ny + cy) * x.nx
			for cxi := lox; cxi <= hix; cxi++ {
				ci := base + cxi
				if x.free[ci] {
					continue
				}
				for _, oi := range x.cand[x.start[ci]:x.start[ci+1]] {
					if !mask.visit(oi) {
						continue
					}
					if x.inflated[oi].Intersects(b) {
						return false
					}
				}
			}
		}
	}
	return true
}

// SegmentFree reports whether the segment a→b stays inside the deflated
// bounds and clears every inflated obstacle — Workspace.SegmentFree at the
// index's margin, allocation-free.
func (x *Index) SegmentFree(a, b Vec3) bool {
	if !x.inner.Contains(a) || !x.inner.Contains(b) {
		return false
	}
	min := a.Min(b)
	max := a.Max(b)
	lox, hix, loy, hiy, loz, hiz, _ := x.cellRange(min, max)
	allFree := true
scan:
	for cz := loz; cz <= hiz; cz++ {
		for cy := loy; cy <= hiy; cy++ {
			base := (cz*x.ny + cy) * x.nx
			for cxi := lox; cxi <= hix; cxi++ {
				if !x.free[base+cxi] {
					allFree = false
					break scan
				}
			}
		}
	}
	if allFree {
		return true
	}
	var mask obstacleMask
	for cz := loz; cz <= hiz; cz++ {
		for cy := loy; cy <= hiy; cy++ {
			base := (cz*x.ny + cy) * x.nx
			for cxi := lox; cxi <= hix; cxi++ {
				ci := base + cxi
				if x.free[ci] {
					continue
				}
				for _, oi := range x.cand[x.start[ci]:x.start[ci+1]] {
					if !mask.visit(oi) {
						continue
					}
					if x.inflated[oi].SegmentIntersects(a, b) {
						return false
					}
				}
			}
		}
	}
	return true
}

// maxCachedIndexes bounds the per-workspace margin→Index cache. The steady
// state of a mission stack uses a handful of distinct margins (safety margin,
// plan margin, grid inflation); query margins beyond the cap fall back to the
// linear scan rather than thrashing the cache.
const maxCachedIndexes = 8

// indexSet is the immutable snapshot swapped through Workspace.views.
type indexSet struct {
	views []*Index
}

func (s *indexSet) find(margin float64) *Index {
	for _, v := range s.views {
		if v.margin == margin {
			return v
		}
	}
	return nil
}

// indexCache is the lazily-populated per-margin index cache of a Workspace.
// Lookups are a single atomic load plus a short scan; builders serialize on
// the mutex and publish copy-on-write snapshots, so concurrent fleet workers
// sharing one workspace never block readers.
type indexCache struct {
	views atomic.Pointer[indexSet]
	mu    sync.Mutex
}

// viewFor returns the cached index for margin, building and caching it on
// first use. It returns nil once the cache is full — callers then use the
// linear scan, preserving exact behaviour at any margin.
func (w *Workspace) viewFor(margin float64) *Index {
	if s := w.cache.views.Load(); s != nil {
		if v := s.find(margin); v != nil {
			return v
		}
		if len(s.views) >= maxCachedIndexes {
			return nil
		}
	}
	w.cache.mu.Lock()
	defer w.cache.mu.Unlock()
	s := w.cache.views.Load()
	if s != nil {
		if v := s.find(margin); v != nil {
			return v
		}
		if len(s.views) >= maxCachedIndexes {
			return nil
		}
	}
	idx := buildIndex(w.bounds, w.obstacles, margin)
	next := &indexSet{}
	if s != nil {
		next.views = append(append([]*Index(nil), s.views...), idx)
	} else {
		next.views = []*Index{idx}
	}
	w.cache.views.Store(next)
	return idx
}

// IndexFor returns the workspace's query index for the given margin,
// building it on first use. Hot-path consumers with a fixed margin (the
// reachability analyzer, planners) resolve their index once and query it
// directly, skipping even the cache lookup.
func (w *Workspace) IndexFor(margin float64) *Index {
	if v := w.viewFor(margin); v != nil {
		return v
	}
	// Cache full: build an uncached index for this caller alone.
	return buildIndex(w.bounds, w.obstacles, margin)
}

package plan

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"

	"repro/internal/geom"
)

// Bug enumerates the deterministic defects injectable into the RRT*
// implementation, reproducing Section V-C ("we injected bugs into the
// implementation of RRT* such that in some cases the generated motion plan
// can collide with obstacles").
type Bug int

// Injectable bugs.
const (
	// BugNone: correct RRT*.
	BugNone Bug = iota
	// BugSkipEdgeCheck: a fraction of tree extensions skip the edge
	// collision check (a classic broken-refactor bug).
	BugSkipEdgeCheck
	// BugUncheckedShortcut: the final path is shortcut without collision
	// checking the new segments (an "optimisation" that trades safety for
	// path length).
	BugUncheckedShortcut
	// BugStaleObstacles: the planner checks collisions against a shrunken
	// copy of the obstacle set (stale or mis-scaled map).
	BugStaleObstacles
)

// bugNames spells each Bug; String and ParseBug are its only readers.
var bugNames = [...]string{
	BugNone:              "none",
	BugSkipEdgeCheck:     "skip-edge-check",
	BugUncheckedShortcut: "unchecked-shortcut",
	BugStaleObstacles:    "stale-obstacles",
}

// String implements fmt.Stringer.
func (b Bug) String() string {
	if b >= 0 && int(b) < len(bugNames) {
		return bugNames[b]
	}
	return fmt.Sprintf("Bug(%d)", int(b))
}

// ParseBug is the inverse of Bug.String.
func ParseBug(name string) (Bug, error) {
	for b, n := range bugNames {
		if n == name {
			return Bug(b), nil
		}
	}
	return 0, fmt.Errorf("unknown planner bug %q (want %s)", name, strings.Join(bugNames[:], " | "))
}

// DefaultBugRate is the per-decision activation probability of
// BugSkipEdgeCheck that the Section V-C experiments inject (30% of draws),
// and the rate a scenario that selects the bug without a rate runs.
const DefaultBugRate = 0.3

// The planner's tuning for the 50 m city workspace.
const (
	// rrtMaxIters bounds the number of samples per Plan call.
	rrtMaxIters = 4000
	// rrtStepSize is the steering extension length.
	rrtStepSize = 3.0
	// rrtNeighborRadius is the rewiring radius. Plan also sizes the NN
	// grid's cells to it: near() then reads at most 3 cells per axis.
	rrtNeighborRadius = 6.0
	// rrtGoalBias is the probability of sampling the goal directly.
	rrtGoalBias = 0.10
	// rrtGoalTolerance is how close a node must get to the goal.
	rrtGoalTolerance = 1.0
)

// RRTStarConfig holds what varies between planners: the clearance, the
// seed and the injected defect. The sampler's tuning is the constants
// above.
type RRTStarConfig struct {
	// Margin is the clearance used in collision checks.
	Margin float64
	// Seed drives the sampler.
	Seed int64
	// Bug selects an injected defect (BugNone for the correct planner).
	Bug Bug
	// BugRate is the per-decision activation probability for probabilistic
	// bugs (BugSkipEdgeCheck).
	BugRate float64
}

// RRTStar is the third-party motion-planner stand-in (OMPL's RRT* [29]): an
// asymptotically optimal sampling-based planner. With a Bug configured it is
// the untrusted advanced planner of the Section V-C experiment.
type RRTStar struct {
	ws  *geom.Workspace
	idx *geom.Index // margin-resolved query index over ws
	cfg RRTStarConfig
	rng *rand.Rand
	// staleObs is the shrunken obstacle set used by BugStaleObstacles.
	staleWS  *geom.Workspace
	staleIdx *geom.Index
}

// rrtScratch is one Plan call's working memory: the node arena and the
// nearest-neighbour grid over it. Plan resets both before use, so a plan
// never depends on which scratch it borrowed.
type rrtScratch struct {
	nodes []rrtNode
	nn    nnGrid
}

// rrtScratches is the free list every RRTStar borrows its scratch from.
var rrtScratches freeList[rrtScratch]

var _ Planner = (*RRTStar)(nil)

// NewRRTStar builds the planner.
func NewRRTStar(ws *geom.Workspace, cfg RRTStarConfig) (*RRTStar, error) {
	r := &RRTStar{
		ws:  ws,
		idx: ws.IndexFor(cfg.Margin),
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Bug == BugStaleObstacles {
		obs := ws.ObstaclesView()
		shrunk := make([]geom.AABB, len(obs))
		for i, o := range obs {
			shrunk[i] = o.Expand(-1.2) // stale map: obstacles 1.2 m smaller
		}
		staleWS, err := geom.NewWorkspace(ws.Bounds(), shrunk)
		if err != nil {
			return nil, fmt.Errorf("rrtstar stale workspace: %w", err)
		}
		r.staleWS = staleWS
		r.staleIdx = staleWS.IndexFor(cfg.Margin)
	}
	return r, nil
}

type rrtNode struct {
	pos    geom.Vec3
	parent int
	cost   float64
}

// Plan implements Planner. With BugNone the result always satisfies the
// clearance margin (it is validated); with a bug injected the result may
// collide — by design, to exercise the RTA protection. The draws come from
// the planner's own RNG, so a planner serves one goroutine at a time.
func (r *RRTStar) Plan(start, goal geom.Vec3) (Plan, error) {
	s := rrtScratches.get()
	defer rrtScratches.put(s)
	bounds := r.ws.Bounds()
	maxNodes := rrtMaxIters + 1 // the start plus one node per iteration
	if cap(s.nodes) < maxNodes {
		s.nodes = make([]rrtNode, 0, maxNodes)
	}
	// The arena never outgrows maxNodes, so appends stay in s.nodes.
	nodes := append(s.nodes[:0], rrtNode{pos: start, parent: -1})
	nn := &s.nn
	nn.reset(bounds, rrtNeighborRadius, rrtNeighborRadius, maxNodes)
	nn.insert(0, start)
	bestGoal := -1
	bestCost := math.Inf(1)
	size := bounds.Size()

	for it := 0; it < rrtMaxIters; it++ {
		var sample geom.Vec3
		if r.rng.Float64() < rrtGoalBias {
			sample = goal
		} else {
			sample = geom.V(
				bounds.Min.X+r.rng.Float64()*size.X,
				bounds.Min.Y+r.rng.Float64()*size.Y,
				bounds.Min.Z+r.rng.Float64()*size.Z,
			)
		}
		nearest := nn.nearest(sample)
		newPos := r.steer(nodes[nearest].pos, sample)
		if !r.pointFree(newPos) {
			continue
		}
		if !r.edgeFree(nodes[nearest].pos, newPos) {
			continue
		}
		// Choose parent: lowest cost among neighbours with a free edge.
		parent := nearest
		cost := nodes[nearest].cost + nodes[nearest].pos.Dist(newPos)
		// near's distances are reused below: Dist is bitwise symmetric, so
		// they equal both nodes[n].pos.Dist(newPos) and newPos.Dist(nodes[n].pos).
		neighbors, dists := nn.near(newPos)
		for j, n := range neighbors {
			c := nodes[n].cost + dists[j]
			if c < cost && r.edgeFree(nodes[n].pos, newPos) {
				parent, cost = n, c
			}
		}
		nodes = append(nodes, rrtNode{pos: newPos, parent: parent, cost: cost})
		newIdx := len(nodes) - 1
		nn.insert(newIdx, newPos)
		// Rewire neighbours through the new node when cheaper.
		for j, n := range neighbors {
			c := cost + dists[j]
			if c < nodes[n].cost && r.edgeFree(newPos, nodes[n].pos) {
				nodes[n].parent = newIdx
				nodes[n].cost = c
			}
		}
		if d := newPos.Dist(goal); d <= rrtGoalTolerance {
			if c := cost + d; c < bestCost {
				bestCost = c
				bestGoal = newIdx
			}
		}
	}
	if bestGoal < 0 {
		return nil, fmt.Errorf("rrtstar %v → %v after %d iters: %w", start, goal, rrtMaxIters, ErrNoPath)
	}

	var rev []geom.Vec3
	for i := bestGoal; i >= 0; i = nodes[i].parent {
		rev = append(rev, nodes[i].pos)
	}
	p := make(Plan, 0, len(rev)+1)
	for i := len(rev) - 1; i >= 0; i-- {
		p = append(p, rev[i])
	}
	p = append(p, goal)

	if r.cfg.Bug == BugUncheckedShortcut {
		p = r.uncheckedShortcut(p)
	} else {
		p = Shortcut(p, r.ws, r.cfg.Margin)
	}
	return p, nil
}

// nearest returns the index of the node closest to p — the lexicographic
// (distance, index) minimum, exactly as the reference linear scan computes it
// — via expanding Chebyshev shells over the NN grid. A cell is skipped, and
// the shell walk stops, once its lower-bound distance to p exceeds the best
// distance found so far by more than float rounding (nnSlack), so a node that
// could tie or win is never skipped. Within a cell, a node whose squared
// distance exceeds that bound squared is skipped before its square root.
func (g *nnGrid) nearest(p geom.Vec3) int {
	cqx := g.axisOf(p.X, g.origin.X, g.nx)
	cqy := g.axisOf(p.Y, g.origin.Y, g.ny)
	cqz := g.axisOf(p.Z, g.origin.Z, g.nz)
	best, bestD := 0, math.Inf(1)
	lim, limSq := bestD, bestD // prune threshold: bestD plus slack
	maxRing := max(g.nx, g.ny, g.nz)
	for ring := 0; ring <= maxRing; ring++ {
		// Any node in ring r is at least (r-1)·cell away.
		if float64(ring-1)*g.cell > lim {
			break
		}
		for dz := -ring; dz <= ring; dz++ {
			cz := cqz + dz
			if cz < 0 || cz >= g.nz {
				continue
			}
			gz := g.gap(p.Z, g.origin.Z, cz, g.nz)
			for dy := -ring; dy <= ring; dy++ {
				cy := cqy + dy
				if cy < 0 || cy >= g.ny {
					continue
				}
				gy := g.gap(p.Y, g.origin.Y, cy, g.ny)
				gzy := gz*gz + gy*gy
				if gzy > limSq {
					continue
				}
				for dx := -ring; dx <= ring; dx++ {
					// Shell only: skip cells interior to the previous ring.
					if dx > -ring && dx < ring && dy > -ring && dy < ring && dz > -ring && dz < ring {
						continue
					}
					cx := cqx + dx
					if cx < 0 || cx >= g.nx {
						continue
					}
					if gx := g.gap(p.X, g.origin.X, cx, g.nx); gzy+gx*gx > limSq {
						continue
					}
					bucket := g.buckets[(cz*g.ny+cy)*g.nx+cx]
					g.nearestScanned += len(bucket)
					for _, e := range bucket {
						v := e.pos.Sub(p)
						sq := v.Dot(v)
						if sq > limSq {
							continue
						}
						d, i := math.Sqrt(sq), int(e.i) // d is bitwise e.pos.Dist(p)
						if d < bestD || (d == bestD && i < best) {
							best, bestD = i, d
							lim = bestD + nnSlack(bestD)
							limSq = lim * lim
						}
					}
				}
			}
		}
	}
	return best
}

// near returns the indices of all nodes within the grid's radius of p in
// ascending order, exactly as the reference linear scan returns them, and
// alongside each index its distance nodes[i].pos.Dist(p). Cells and nodes
// farther than the radius plus nnSlack are skipped on squared distances;
// only the rest pay a square root and the exact d <= radius test. Hits are
// marked in a bitmap over node indices, so the ascending order comes from a
// word scan rather than a sort. Both slices are grid scratch, valid until
// the next near call.
func (g *nnGrid) near(p geom.Vec3) ([]int, []float64) {
	rad := g.rad
	lim := rad + nnSlack(rad)
	limSq := lim * lim
	lox, hix := g.axisOf(p.X-rad, g.origin.X, g.nx), g.axisOf(p.X+rad, g.origin.X, g.nx)
	loy, hiy := g.axisOf(p.Y-rad, g.origin.Y, g.ny), g.axisOf(p.Y+rad, g.origin.Y, g.ny)
	loz, hiz := g.axisOf(p.Z-rad, g.origin.Z, g.nz), g.axisOf(p.Z+rad, g.origin.Z, g.nz)
	// The squared gaps of the x and then the y cells in range, packed in
	// one scratch slice; z's are taken once per z row below.
	gx := g.gapSq[:0]
	for cx := lox; cx <= hix; cx++ {
		v := g.gap(p.X, g.origin.X, cx, g.nx)
		gx = append(gx, v*v)
	}
	gy := gx[len(gx):]
	for cy := loy; cy <= hiy; cy++ {
		v := g.gap(p.Y, g.origin.Y, cy, g.ny)
		gy = append(gy, v*v)
	}
	loW, hiW := len(g.mark), -1 // bitmap words holding a hit
	for cz := loz; cz <= hiz; cz++ {
		gz := g.gap(p.Z, g.origin.Z, cz, g.nz)
		gz *= gz
		for cy := loy; cy <= hiy; cy++ {
			gzy := gz + gy[cy-loy]
			if gzy > limSq {
				continue
			}
			base := (cz*g.ny + cy) * g.nx
			for cx := lox; cx <= hix; cx++ {
				if gzy+gx[cx-lox] > limSq {
					continue
				}
				bucket := g.buckets[base+cx]
				g.nearScanned += len(bucket)
				for _, e := range bucket {
					v := e.pos.Sub(p)
					sq := v.Dot(v)
					if sq > limSq {
						continue
					}
					if d := math.Sqrt(sq); d <= rad { // d is bitwise e.pos.Dist(p)
						i := int(e.i)
						g.dist[i] = d
						w := i >> 6
						g.mark[w] |= 1 << (i & 63)
						loW, hiW = min(loW, w), max(hiW, w)
					}
				}
			}
		}
	}
	idx, dist := g.nearIdx[:0], g.nearDist[:0]
	for w := loW; w <= hiW; w++ {
		for m := g.mark[w]; m != 0; m &= m - 1 {
			i := w<<6 | bits.TrailingZeros64(m)
			idx = append(idx, i)
			dist = append(dist, g.dist[i])
		}
		g.mark[w] = 0
	}
	g.nearIdx, g.nearDist = idx, dist
	return idx, dist
}

// nnSlack is the float-rounding allowance of the grid's pruning: a cell or
// node is skipped only when its (box) distance exceeds d + nnSlack(d), far
// above the few-ulp error of the box and Dist arithmetic at workspace scale.
func nnSlack(d float64) float64 { return 1e-9 * (1 + d) }

// nearestLinear is the reference O(n) nearest kept as differential-test
// ground truth for the grid implementation.
func nearestLinear(nodes []rrtNode, p geom.Vec3) int {
	best, bestD := 0, math.Inf(1)
	for i, n := range nodes {
		if d := n.pos.Dist(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// nearLinear is the reference O(n) query for the nodes within rad of p, kept
// as differential-test ground truth for the grid implementation.
func nearLinear(nodes []rrtNode, p geom.Vec3, rad float64) ([]int, []float64) {
	var idx []int
	var dist []float64
	for i, n := range nodes {
		if d := n.pos.Dist(p); d <= rad {
			idx = append(idx, i)
			dist = append(dist, d)
		}
	}
	return idx, dist
}

// nnEntry is one node in a grid bucket: its position, copied at insertion
// (a node never moves; rewiring changes only its parent and cost), and its
// index in the node arena. Queries read positions from the bucket itself.
type nnEntry struct {
	pos geom.Vec3
	i   int32
}

// nnGrid is a uniform-grid point index over tree nodes. near() inspects the
// cells its radius reaches, skipping those wholly beyond it, and nearest()
// usually scans only the query cell and its first shell, skipping the cells
// its best distance so far already rules out. Plan uses cells one rewiring
// radius wide. Buckets and the per-node near() scratch keep their storage
// across resets, within the bound reset enforces.
type nnGrid struct {
	origin     geom.Vec3
	cell, rad  float64 // cell edge; near()'s radius
	nx, ny, nz int
	buckets    [][]nnEntry
	// Bucket entries read by near() and nearest() since reset: the work
	// each query does, counted without a clock.
	nearScanned, nearestScanned int
	// near() scratch: a hit bitmap and distance per node index, the per-axis
	// squared cell gaps, and the returned (index, distance) slices.
	mark     []uint64
	dist     []float64
	gapSq    []float64
	nearIdx  []int
	nearDist []float64
}

// reset empties the grid over bounds for at most maxNodes nodes, with cells
// of edge cell and near() radius rad. A bucket keeps its storage only up to
// twice its fair share of maxNodes (at least 16 entries): nodes bunch up
// around each plan's goal, so keeping every bucket's peak would let a
// reused grid grow with the number of plans rather than with maxNodes.
func (g *nnGrid) reset(bounds geom.AABB, cell, rad float64, maxNodes int) {
	size := bounds.Size()
	g.origin = bounds.Min
	g.cell, g.rad = cell, rad
	g.nx = gridAxisCells(size.X, cell)
	g.ny = gridAxisCells(size.Y, cell)
	g.nz = gridAxisCells(size.Z, cell)
	g.nearScanned, g.nearestScanned = 0, 0
	n := g.nx * g.ny * g.nz
	if cap(g.buckets) < n {
		g.buckets = make([][]nnEntry, n)
	}
	// Buckets past n, kept from a larger grid, count against the bound too.
	all := g.buckets[:cap(g.buckets)]
	keep := max(16, 2*maxNodes/len(all))
	for i, b := range all {
		if cap(b) > keep {
			all[i] = nil
		} else {
			all[i] = b[:0]
		}
	}
	g.buckets = all[:n]
	if len(g.dist) < maxNodes {
		g.dist = make([]float64, maxNodes)
		g.mark = make([]uint64, (maxNodes+63)/64)
	}
	if cap(g.gapSq) < g.nx+g.ny {
		g.gapSq = make([]float64, 0, g.nx+g.ny)
	}
}

func gridAxisCells(extent, cell float64) int {
	if !(extent > 0) || !(cell > 0) {
		return 1
	}
	n := int(math.Ceil(extent / cell))
	if n < 1 {
		return 1
	}
	return n
}

// gap is the distance along one axis from v to cell c's slab. Edge slabs
// extend to infinity, because axisOf clamps out-of-bounds points into them.
func (g *nnGrid) gap(v, origin float64, c, n int) float64 {
	if c > 0 {
		if lo := origin + float64(c)*g.cell; v < lo {
			return lo - v
		}
	}
	if c < n-1 {
		if hi := origin + float64(c+1)*g.cell; v > hi {
			return v - hi
		}
	}
	return 0
}

// axisOf maps a coordinate to its clamped cell index; out-of-bounds
// coordinates land in edge cells on both insert and query, which keeps the
// grid exhaustive (and hence the queries exact) for any point.
func (g *nnGrid) axisOf(v, origin float64, n int) int {
	if g.cell <= 0 || n <= 1 {
		return 0
	}
	f := math.Floor((v - origin) / g.cell)
	if f > 0 {
		if f >= float64(n-1) {
			return n - 1
		}
		return int(f)
	}
	return 0
}

func (g *nnGrid) insert(idx int, p geom.Vec3) {
	cx := g.axisOf(p.X, g.origin.X, g.nx)
	cy := g.axisOf(p.Y, g.origin.Y, g.ny)
	cz := g.axisOf(p.Z, g.origin.Z, g.nz)
	ci := (cz*g.ny+cy)*g.nx + cx
	g.buckets[ci] = append(g.buckets[ci], nnEntry{pos: p, i: int32(idx)})
}

func (r *RRTStar) steer(from, to geom.Vec3) geom.Vec3 {
	d := to.Sub(from)
	if d.Norm() <= rrtStepSize {
		return to
	}
	return from.Add(d.Unit().Scale(rrtStepSize))
}

func (r *RRTStar) pointFree(p geom.Vec3) bool {
	if r.cfg.Bug == BugStaleObstacles {
		return r.staleIdx.Free(p)
	}
	return r.idx.Free(p)
}

func (r *RRTStar) edgeFree(a, b geom.Vec3) bool {
	if r.cfg.Bug == BugSkipEdgeCheck && r.rng.Float64() < r.cfg.BugRate {
		return true // the bug: extension accepted without checking
	}
	if r.cfg.Bug == BugStaleObstacles {
		return r.staleIdx.SegmentFree(a, b)
	}
	return r.idx.SegmentFree(a, b)
}

// uncheckedShortcut aggressively straightens the path without collision
// checking — the BugUncheckedShortcut defect.
func (r *RRTStar) uncheckedShortcut(p Plan) Plan {
	if len(p) <= 2 {
		return p
	}
	return Plan{p[0], p[len(p)-1]}
}

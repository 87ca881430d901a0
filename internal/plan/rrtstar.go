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
	// rrtNeighborRadius is the rewiring radius, and the NN grid's cell edge.
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
	nn.reset(bounds, rrtNeighborRadius, maxNodes)
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
		nearest := nn.nearest(nodes, sample)
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
		neighbors, dists := nn.near(nodes, newPos)
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
// could tie or win is never skipped.
func (g *nnGrid) nearest(nodes []rrtNode, p geom.Vec3) int {
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
					for _, ni := range g.buckets[(cz*g.ny+cy)*g.nx+cx] {
						i := int(ni)
						d := nodes[i].pos.Dist(p)
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

// near returns the indices of all nodes within the grid's cell edge (the
// rewiring radius) of p in ascending order, exactly as the reference linear
// scan returns them, and alongside each index its distance
// nodes[i].pos.Dist(p). Hits are marked in a bitmap over node indices, so
// the ascending order comes from a word scan rather than a sort. Both slices
// are grid scratch, valid until the next near call.
func (g *nnGrid) near(nodes []rrtNode, p geom.Vec3) ([]int, []float64) {
	rad := g.cell
	lox := g.axisOf(p.X-rad, g.origin.X, g.nx)
	hix := g.axisOf(p.X+rad, g.origin.X, g.nx)
	loy := g.axisOf(p.Y-rad, g.origin.Y, g.ny)
	hiy := g.axisOf(p.Y+rad, g.origin.Y, g.ny)
	loz := g.axisOf(p.Z-rad, g.origin.Z, g.nz)
	hiz := g.axisOf(p.Z+rad, g.origin.Z, g.nz)
	loW, hiW := len(g.mark), -1 // bitmap words holding a hit
	for cz := loz; cz <= hiz; cz++ {
		for cy := loy; cy <= hiy; cy++ {
			base := (cz*g.ny + cy) * g.nx
			for cx := lox; cx <= hix; cx++ {
				for _, ni := range g.buckets[base+cx] {
					i := int(ni)
					if d := nodes[i].pos.Dist(p); d <= rad {
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

// nnSlack is the float-rounding allowance of nearest's lower-bound pruning:
// a cell is skipped only when its box distance exceeds d + nnSlack(d), far
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

// nnGrid is a uniform-grid point index over tree nodes with cell edge equal
// to the rewiring radius: near() inspects at most 3 cells per axis, and
// nearest() usually scans only the query cell and its first shell, skipping
// the cells its best distance so far already rules out. Buckets and the
// per-node near() scratch keep their storage across resets.
type nnGrid struct {
	origin     geom.Vec3
	cell       float64
	nx, ny, nz int
	buckets    [][]int32
	// near() scratch: a hit bitmap and distance per node index, and the
	// returned (index, distance) slices.
	mark     []uint64
	dist     []float64
	nearIdx  []int
	nearDist []float64
}

// reset empties the grid over bounds for at most maxNodes nodes.
func (g *nnGrid) reset(bounds geom.AABB, cell float64, maxNodes int) {
	size := bounds.Size()
	g.origin = bounds.Min
	g.cell = cell
	g.nx = gridAxisCells(size.X, cell)
	g.ny = gridAxisCells(size.Y, cell)
	g.nz = gridAxisCells(size.Z, cell)
	n := g.nx * g.ny * g.nz
	if cap(g.buckets) < n {
		g.buckets = make([][]int32, n)
	}
	g.buckets = g.buckets[:n]
	for i := range g.buckets {
		g.buckets[i] = g.buckets[i][:0]
	}
	if len(g.dist) < maxNodes {
		g.dist = make([]float64, maxNodes)
		g.mark = make([]uint64, (maxNodes+63)/64)
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
	g.buckets[ci] = append(g.buckets[ci], int32(idx))
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

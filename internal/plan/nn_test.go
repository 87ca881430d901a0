package plan

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestNNGridMatchesLinear grows a random node cloud the way Plan does —
// inserting into the grid as it appends — and checks nearest/near (indices
// and distances) against the reference linear scans at every step, including
// duplicate positions (index tie-breaks) and out-of-bounds points (clamped
// cells).
func TestNNGridMatchesLinear(t *testing.T) {
	bounds := geom.CityWorkspace().Bounds()
	size := bounds.Size()
	rng := rand.New(rand.NewSource(23))
	const n = 600
	var g nnGrid
	g.reset(bounds, rrtNeighborRadius, rrtNeighborRadius, n)
	var nodes []rrtNode
	randPt := func(slack float64) geom.Vec3 {
		return geom.V(
			bounds.Min.X-slack+rng.Float64()*(size.X+2*slack),
			bounds.Min.Y-slack+rng.Float64()*(size.Y+2*slack),
			bounds.Min.Z-slack+rng.Float64()*(size.Z+2*slack),
		)
	}
	for i := 0; i < n; i++ {
		var p geom.Vec3
		switch {
		case i > 0 && i%17 == 0:
			p = nodes[rng.Intn(len(nodes))].pos // exact duplicate: tie-break case
		case i%29 == 0:
			p = randPt(5) // out of bounds: clamped-cell case
		default:
			p = randPt(0)
		}
		nodes = append(nodes, rrtNode{pos: p, parent: -1})
		g.insert(len(nodes)-1, p)
		checkNN(t, &g, nodes, randPt(3))
	}
}

// TestNNGridBoundaryCases places nodes exactly on cell boundaries (grid
// lines, the workspace faces) and past the faces (clamped into edge cells),
// inserted in both orders so the lower index of a tie sits on either side of
// a boundary. Queries sit on the nodes, half a cell off along one axis
// (an exact tie whose far node's cell lower bound equals the tie distance),
// at exactly the rewiring radius, and off the diagonals.
func TestNNGridBoundaryCases(t *testing.T) {
	ws := geom.CityWorkspace()
	rad := rrtNeighborRadius
	// Grid lines of the 6 m grid over the 50×50×12 city, the faces, and
	// points beyond them.
	xs := []float64{-5, 0, 6, 12, 18, 48, 50, 60}
	zs := []float64{-4, 0, 6, 12, 20}
	var pts []geom.Vec3
	for _, x := range xs {
		for _, y := range xs {
			for _, z := range zs {
				pts = append(pts, geom.V(x, y, z))
			}
		}
	}
	var queries []geom.Vec3
	for _, p := range pts {
		queries = append(queries, p,
			p.Add(geom.V(3, 0, 0)), p.Add(geom.V(0, -3, 0)), p.Add(geom.V(0, 0, 3)),
			p.Add(geom.V(rad, 0, 0)), p.Add(geom.V(0, -rad, 0)), p.Add(geom.V(0, 0, rad)),
			p.Add(geom.V(3, 3, 3)), p.Add(geom.V(-3, 3, -3)))
	}
	for _, descending := range []bool{false, true} {
		var g nnGrid
		g.reset(ws.Bounds(), rad, rad, len(pts))
		var nodes []rrtNode
		for k := range pts {
			p := pts[k]
			if descending {
				p = pts[len(pts)-1-k]
			}
			nodes = append(nodes, rrtNode{pos: p, parent: -1})
			g.insert(k, p)
			if k%16 == 15 || k == len(pts)-1 {
				for _, q := range queries {
					checkNN(t, &g, nodes, q)
				}
			}
		}
	}

	// A node clamped into an edge cell from past the face is nearer than
	// the query cell's own node, though the edge cell's in-bounds slab
	// would put it beyond that node.
	var g nnGrid
	g.reset(ws.Bounds(), rad, rad, 2)
	nodes := []rrtNode{{pos: geom.V(60, 3, 3), parent: -1}, {pos: geom.V(55, 7, 3), parent: -1}}
	for i, n := range nodes {
		g.insert(i, n.pos)
	}
	if got := g.nearest(geom.V(60, 7, 3)); got != 0 {
		t.Fatalf("nearest past the face = %d, want 0", got)
	}
	checkNN(t, &g, nodes, geom.V(60, 7, 3))
}

// FuzzNNGridMatchesLinear holds the grid queries to the linear references on
// fuzzed point clouds. The first byte picks the grid cell (bits 0–1) and the
// radius near queries as a multiple of it ((byte>>2)%3: 1×, 0.5× or 1.5×, so
// near's range reaches past 3 cells per axis and cells may be smaller than
// the radius); every following 4-byte chunk (x, y, z, op) is a
// point on a 0.5 m lattice reaching past the city bounds, so nodes and
// queries land exactly on cell boundaries, on the workspace faces and in
// clamped edge cells. op bit 0 inserts the point as a node; bit 1 shifts the
// query by exactly the radius along axis op>>2 % 3. Every chunk checks nearest and near
// (indices and distances) at its query point.
func FuzzNNGridMatchesLinear(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 12, 12, 12, 0, 24, 12, 6, 1, 12, 12, 12, 2})
	f.Add([]byte{0, 100, 100, 30, 0, 100, 100, 30, 0, 101, 99, 30, 3, 0, 0, 0, 7})
	f.Add([]byte{3, 127, 127, 63, 0, 12, 127, 0, 0, 40, 40, 20, 6, 40, 40, 20, 10})
	f.Add([]byte{1<<2 | 2, 0, 0, 0, 0, 12, 12, 12, 0, 18, 12, 6, 1, 12, 12, 12, 2, 6, 12, 12, 0, 12, 6, 12, 6})
	f.Add([]byte{2<<2 | 0, 20, 20, 10, 0, 25, 20, 10, 0, 20, 25, 12, 0, 30, 20, 10, 2, 20, 20, 10, 6, 15, 20, 10, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bounded clouds and cells of at least 2.5 m keep each input cheap:
		// a nearest() far from a sparse cloud walks O(rings³) empty cells.
		if len(data) == 0 || len(data) > 1+4*64 {
			t.Skip()
		}
		cell := []float64{2.5, 4, 6, 13}[data[0]%4]
		rad := cell * []float64{1, 0.5, 1.5}[(data[0]>>2)%3]
		chunks := data[1:]
		var g nnGrid
		g.reset(geom.CityWorkspace().Bounds(), cell, rad, len(chunks)/4+1)
		var nodes []rrtNode
		for ; len(chunks) >= 4; chunks = chunks[4:] {
			p := geom.V(-6+float64(chunks[0]%128)*0.5, -6+float64(chunks[1]%128)*0.5, -3+float64(chunks[2]%64)*0.5)
			op := chunks[3]
			if op&1 == 0 {
				nodes = append(nodes, rrtNode{pos: p, parent: -1})
				g.insert(len(nodes)-1, p)
			}
			if len(nodes) == 0 {
				continue
			}
			q := p
			if op&2 != 0 {
				off := [3]float64{}
				off[(op>>2)%3] = rad
				q = q.Add(geom.V(off[0], off[1], off[2]))
			}
			checkNN(t, &g, nodes, q)
		}
	})
}

// checkNN compares the grid queries against the linear references at q, at
// the radius the grid was reset with.
func checkNN(t *testing.T, g *nnGrid, nodes []rrtNode, q geom.Vec3) {
	t.Helper()
	if got, want := g.nearest(q), nearestLinear(nodes, q); got != want {
		t.Fatalf("%d nodes: nearest(%v) = %d, linear = %d", len(nodes), q, got, want)
	}
	gotIdx, gotDist := g.near(q)
	wantIdx, wantDist := nearLinear(nodes, q, g.rad)
	if len(gotIdx) != len(wantIdx) || len(gotDist) != len(gotIdx) {
		t.Fatalf("%d nodes: near(%v) = %v %v, linear = %v %v", len(nodes), q, gotIdx, gotDist, wantIdx, wantDist)
	}
	for j := range gotIdx {
		if gotIdx[j] != wantIdx[j] || math.Float64bits(gotDist[j]) != math.Float64bits(wantDist[j]) {
			t.Fatalf("%d nodes: near(%v)[%d] = (%d, %v), linear = (%d, %v)",
				len(nodes), q, j, gotIdx[j], gotDist[j], wantIdx[j], wantDist[j])
		}
	}
}

// TestRRTStarScratchReuseDeterministic replans with one planner instance and
// compares against a fresh instance per call: scratch reuse must not change
// any output.
func TestRRTStarScratchReuseDeterministic(t *testing.T) {
	ws := geom.CityWorkspace()
	start, goal := geom.V(2, 2, 2), geom.V(46, 46, 9)
	reused, err := NewRRTStar(ws, RRTStarConfig{Margin: 0.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		fresh, err := NewRRTStar(ws, RRTStarConfig{Margin: 0.6, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		// Advance the fresh planner's rng to the same trial point.
		for i := 0; i < trial; i++ {
			if _, err := fresh.Plan(start, goal); err != nil {
				t.Fatal(err)
			}
		}
		pr, errR := reused.Plan(start, goal)
		pf, errF := fresh.Plan(start, goal)
		if (errR == nil) != (errF == nil) {
			t.Fatalf("trial %d: reused err %v, fresh err %v", trial, errR, errF)
		}
		if len(pr) != len(pf) {
			t.Fatalf("trial %d: plan lengths %d vs %d", trial, len(pr), len(pf))
		}
		for i := range pr {
			if pr[i] != pf[i] {
				t.Fatalf("trial %d: plan[%d] = %v vs %v", trial, i, pr[i], pf[i])
			}
		}
	}
}

// TestRRTStarScratchRetention plans across the city and then the canyon
// with goals spread over each map, so the nodes bunch up in a different cell
// each plan, and holds every free scratch's grid storage to O(rrtMaxIters):
// the summed capacity of all its buckets, including those past the current
// grid's cells that a larger grid left behind (city has 162 cells, canyon
// 100). reset keeps at most max(16, 2·maxNodes/cells) entries per bucket,
// and a plan at most doubles a bucket past what it holds, so the sum stays
// within 4·maxNodes.
func TestRRTStarScratchRetention(t *testing.T) {
	const bound = 4 * (rrtMaxIters + 1)
	for _, ws := range []*geom.Workspace{geom.CityWorkspace(), geom.CanyonWorkspace()} {
		r, err := NewRRTStar(ws, RRTStarConfig{Margin: 0.6, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		b := ws.Bounds()
		size := b.Size()
		for k := 0; k < 60; k++ {
			// Start and goal on opposite sides of a 10×6 lattice.
			fx, fy := (float64(k%10)+0.5)/10, (float64(k/10)+0.5)/6
			start := b.Min.Add(geom.V((1-fx)*size.X, (1-fy)*size.Y, 2))
			goal := b.Min.Add(geom.V(fx*size.X, fy*size.Y, 2+float64(k%3)*2))
			if !r.idx.Free(start) || !r.idx.Free(goal) {
				continue
			}
			r.Plan(start, goal)
		}
	}
	rrtScratches.mu.Lock()
	defer rrtScratches.mu.Unlock()
	for _, s := range rrtScratches.free {
		total := 0
		for _, b := range s.nn.buckets[:cap(s.nn.buckets)] {
			total += cap(b)
		}
		t.Logf("grid storage %d entries (%.2f× %d)", total, float64(total)/(rrtMaxIters+1), rrtMaxIters+1)
		if total > bound {
			t.Errorf("grid keeps %d bucket entries, want ≤ %d", total, bound)
		}
	}
}

func BenchmarkRRTStarPlan(b *testing.B) {
	ws := geom.CityWorkspace()
	start, goal := geom.V(2, 2, 2), geom.V(46, 46, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRRTStar(ws, RRTStarConfig{Margin: 0.6, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Plan(start, goal); err != nil {
			b.Fatal(err)
		}
	}
}

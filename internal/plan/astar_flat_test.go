package plan

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// refItem/refHeap are the pre-flat A* open list (container/heap over boxed
// items), kept verbatim as the tie-break reference.
type refItem struct {
	cell geom.Cell
	f    float64
}

type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].f < h[j].f }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refPlan is the original map-based A* search, reproduced verbatim so the
// flat-array rewrite can be held to its exact output — including every
// f-score tie-break, which the hand-rolled heap must replicate.
func refPlan(a *AStar, start, goal geom.Vec3) (Plan, error) {
	sc, err := a.nearestFreeCell(start)
	if err != nil {
		return nil, err
	}
	gc, err := a.nearestFreeCell(goal)
	if err != nil {
		return nil, err
	}
	gScore := make(map[geom.Cell]float64)
	cameFrom := make(map[geom.Cell]geom.Cell)
	closed := make(map[geom.Cell]bool)
	goalP := a.grid.CellCenter(gc)
	h := func(c geom.Cell) float64 { return a.grid.CellCenter(c).Dist(goalP) }
	open := &refHeap{{cell: sc, f: h(sc)}}
	gScore[sc] = 0
	var nbuf []geom.Cell
	for open.Len() > 0 {
		cur := heap.Pop(open).(refItem).cell
		if closed[cur] {
			continue
		}
		if cur == gc {
			var rev []geom.Vec3
			for {
				rev = append(rev, a.grid.CellCenter(cur))
				prev, ok := cameFrom[cur]
				if !ok {
					break
				}
				cur = prev
			}
			p := make(Plan, 0, len(rev)+2)
			p = append(p, start)
			for i := len(rev) - 1; i >= 0; i-- {
				p = append(p, rev[i])
			}
			p = append(p, goal)
			p = Shortcut(p, a.ws, a.margin)
			if err := Validate(p, a.ws, a.margin, start, goal, 1e-6); err != nil {
				return nil, err
			}
			return p, nil
		}
		closed[cur] = true
		curP := a.grid.CellCenter(cur)
		nbuf = a.grid.Neighbors26(cur, nbuf[:0])
		for _, n := range nbuf {
			if a.grid.Occupied(n) || closed[n] {
				continue
			}
			tentative := gScore[cur] + curP.Dist(a.grid.CellCenter(n))
			if old, seen := gScore[n]; !seen || tentative < old {
				gScore[n] = tentative
				cameFrom[n] = cur
				heap.Push(open, refItem{cell: n, f: tentative + h(n)})
			}
		}
	}
	return nil, ErrNoPath
}

// astarQuery is one planner query with the reference search's answer.
type astarQuery struct {
	a           *AStar
	start, goal geom.Vec3
	want        Plan
	wantErr     error
}

// astarQueries draws perTrial random endpoint pairs for a planner in each
// factory workspace (grids of different sizes) and interleaves them, one
// query per planner in turn, so consecutive searches share one scratch
// across grids. Each query carries refPlan's answer.
func astarQueries(t *testing.T, perTrial int) []astarQuery {
	t.Helper()
	var planners []*AStar
	for _, ws := range []*geom.Workspace{
		geom.CityWorkspace(),
		geom.CanyonWorkspace(),
		geom.CornerHazardWorkspace(),
	} {
		a, err := NewAStar(ws, 1.0, 0.45)
		if err != nil {
			t.Fatal(err)
		}
		planners = append(planners, a)
	}
	rng := rand.New(rand.NewSource(31))
	var qs []astarQuery
	for trial := 0; trial < perTrial; trial++ {
		for _, a := range planners {
			b := a.ws.Bounds()
			size := b.Size()
			pt := func() geom.Vec3 {
				return geom.V(
					b.Min.X+rng.Float64()*size.X,
					b.Min.Y+rng.Float64()*size.Y,
					b.Min.Z+0.5+rng.Float64()*(size.Z-1),
				)
			}
			q := astarQuery{a: a, start: pt(), goal: pt()}
			q.want, q.wantErr = refPlan(a, q.start, q.goal)
			qs = append(qs, q)
		}
	}
	return qs
}

// check runs the query through the flat planner and reports any difference
// from the reference answer.
func (q astarQuery) check() error {
	got, err := q.a.Plan(q.start, q.goal)
	if (err == nil) != (q.wantErr == nil) {
		return fmt.Errorf("%v → %v: flat err %v, reference err %v", q.start, q.goal, err, q.wantErr)
	}
	if len(got) != len(q.want) {
		return fmt.Errorf("%v → %v: flat plan %v, reference %v", q.start, q.goal, got, q.want)
	}
	for i := range got {
		if got[i] != q.want[i] {
			return fmt.Errorf("%v → %v: waypoint %d differs: %v vs %v", q.start, q.goal, i, got[i], q.want[i])
		}
	}
	return nil
}

// isolateAStarScratch empties the process-wide A* free list for the test,
// so its searches start from fresh scratch, and restores it afterwards.
func isolateAStarScratch(t *testing.T) {
	astarScratches.mu.Lock()
	saved := astarScratches.free
	astarScratches.free = nil
	astarScratches.mu.Unlock()
	t.Cleanup(func() {
		astarScratches.mu.Lock()
		astarScratches.free = saved
		astarScratches.mu.Unlock()
	})
}

// eachFreeAStarScratch applies f to every scratch on the free list: the
// test-only seam that moves a scratch's generation.
func eachFreeAStarScratch(f func(*astarScratch)) {
	astarScratches.mu.Lock()
	defer astarScratches.mu.Unlock()
	for _, s := range astarScratches.free {
		f(s)
	}
}

// replayAStar runs the queries through one fresh free list, first on one
// goroutine and then on two at once (one in reverse order), applying wrap to
// every free scratch before each round after the first, and returns the
// first difference from the reference.
func replayAStar(qs []astarQuery, wrap func(*astarScratch)) error {
	sequential := func() error {
		for _, q := range qs {
			if err := q.check(); err != nil {
				return err
			}
		}
		return nil
	}
	concurrent := func() error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range qs {
					q := qs[i]
					if g == 1 {
						q = qs[len(qs)-1-i]
					}
					if err := q.check(); err != nil {
						errs[g] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	for round, run := range []func() error{sequential, sequential, concurrent, concurrent} {
		if round > 0 {
			eachFreeAStarScratch(wrap)
		}
		if err := run(); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	return nil
}

// TestAStarFlatMatchesReference holds the flat-array planner to the original
// map-based search: waypoint-identical plans on interleaved random queries
// over the city, canyon and corner-hazard grids, all served by one free list
// of shared scratch, from one goroutine and from two at once. Before each
// round after the first, every free scratch is set to its last generation,
// so the round's first search on it wraps and clears its marks.
func TestAStarFlatMatchesReference(t *testing.T) {
	isolateAStarScratch(t)
	qs := astarQueries(t, 12)
	if err := replayAStar(qs, func(s *astarScratch) { s.gen = astarMaxGen }); err != nil {
		t.Fatal(err)
	}
	// Every scratch wrapped before the last round and ran at most one
	// generation per query since.
	eachFreeAStarScratch(func(s *astarScratch) {
		if s.gen == 0 || int(s.gen) > len(qs) {
			t.Errorf("scratch at generation %d after the last wrap, want 1..%d", s.gen, len(qs))
		}
	})
}

// TestAStarWrapDefectDetected plants the defect a generation wrap must not
// have: restarting the generations without clearing the marks, so the
// stamps of the searches before the wrap read as this search's. The replay
// of TestAStarFlatMatchesReference must report it.
func TestAStarWrapDefectDetected(t *testing.T) {
	isolateAStarScratch(t)
	qs := astarQueries(t, 12)
	if err := replayAStar(qs, func(s *astarScratch) { s.gen = 0 }); err == nil {
		t.Fatal("a wrap that keeps the stale marks went unnoticed")
	} else {
		t.Logf("detected: %v", err)
	}
}

func BenchmarkAStarPlan(b *testing.B) {
	ws := geom.CityWorkspace()
	a, err := NewAStar(ws, 1.0, 0.45)
	if err != nil {
		b.Fatal(err)
	}
	start, goal := geom.V(2, 2, 2), geom.V(46, 46, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Plan(start, goal); err != nil {
			b.Fatal(err)
		}
	}
}

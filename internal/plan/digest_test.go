package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/geom"
)

// planDigestFile pins RRT*'s outputs: one SHA-256 per (workspace, bug mode)
// over every Plan's waypoints (float64 bits) and error text, for fixed seeds
// and start/goal pairs. Any change to sampling order, neighbour search,
// tie-breaks, rng draws or shortcutting shows up here as a changed line.
const planDigestFile = "testdata/rrtstar_plans.digest"

// planDigestCases are the pinned queries: two registry workspaces, each with
// start/goal pairs that cross the map, hug obstacles, and change altitude.
var planDigestCases = []struct {
	name  string
	ws    func() *geom.Workspace
	pairs [][2]geom.Vec3
}{
	{"city", geom.CityWorkspace, [][2]geom.Vec3{
		{geom.V(2, 2, 2), geom.V(46, 46, 9)},
		{geom.V(3, 3, 2), geom.V(46, 46, 2)},
		{geom.V(47, 3, 10), geom.V(4, 47, 3)},
	}},
	{"canyon", geom.CanyonWorkspace, [][2]geom.Vec3{
		{geom.V(4, 15, 3), geom.V(56, 15, 3)},
		{geom.V(5, 4, 2), geom.V(55, 26, 8)},
		{geom.V(30, 15, 5), geom.V(3, 27, 2)},
	}},
}

func planDigests(t testing.TB) string {
	var b strings.Builder
	for _, c := range planDigestCases {
		ws := c.ws()
		for _, bug := range []Bug{BugNone, BugSkipEdgeCheck, BugUncheckedShortcut, BugStaleObstacles} {
			h := sha256.New()
			var buf [8]byte
			for seed := int64(1); seed <= 4; seed++ {
				cfg := RRTStarConfig{Margin: 0.6, Seed: seed}
				cfg.Bug = bug
				if bug == BugSkipEdgeCheck {
					cfg.BugRate = 0.3
				}
				r, err := NewRRTStar(ws, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// One planner serves all pairs, as a mission's planner node
				// does, so scratch reuse and rng continuity are pinned too.
				for _, sg := range c.pairs {
					p, err := r.Plan(sg[0], sg[1])
					fmt.Fprintf(h, "seed=%d err=%v n=%d;", seed, err, len(p))
					for _, v := range p {
						for _, f := range [3]float64{v.X, v.Y, v.Z} {
							binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
							h.Write(buf[:])
						}
					}
				}
			}
			fmt.Fprintf(&b, "%s %s %x\n", c.name, bug, h.Sum(nil))
		}
	}
	return b.String()
}

// TestRRTStarPlanDigest holds Plan bit-identical to the recorded outputs in
// every bug mode: neighbour-search optimisations must not change a plan.
func TestRRTStarPlanDigest(t *testing.T) {
	want, err := os.ReadFile(planDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := planDigests(t); got != string(want) {
		t.Fatalf("RRT* plan digests changed.\ngot:\n%swant:\n%s", got, want)
	}
}

// planScanCounts pins the neighbour-search work of the planDigestCases plans:
// per (workspace, bug mode), the bucket entries near() and nearest() read,
// summed over every seed and pair. The counts are clock-free, so any change
// to which cells the grid scans shows up here even when the plans stay the
// same.
var planScanCounts = map[string][2]int{
	"city none":                 {4662215, 2296705},
	"city skip-edge-check":      {4642117, 2320276},
	"city unchecked-shortcut":   {4662215, 2296705},
	"city stale-obstacles":      {6064782, 2402393},
	"canyon none":               {4539215, 2920697},
	"canyon skip-edge-check":    {4498110, 2844887},
	"canyon unchecked-shortcut": {4539215, 2920697},
	"canyon stale-obstacles":    {5346359, 3042773},
}

// TestRRTStarScanCounts holds the grid's candidate counts to planScanCounts.
// Plan returns its scratch to the free list, whose top the test then reads:
// no other plan runs in between, since the package's tests run one at a time.
func TestRRTStarScanCounts(t *testing.T) {
	for _, c := range planDigestCases {
		ws := c.ws()
		for _, bug := range []Bug{BugNone, BugSkipEdgeCheck, BugUncheckedShortcut, BugStaleObstacles} {
			key := c.name + " " + bug.String()
			var sum [2]int
			for seed := int64(1); seed <= 4; seed++ {
				cfg := RRTStarConfig{Margin: 0.6, Seed: seed, Bug: bug}
				if bug == BugSkipEdgeCheck {
					cfg.BugRate = 0.3
				}
				r, err := NewRRTStar(ws, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, sg := range c.pairs {
					r.Plan(sg[0], sg[1])
					s := rrtScratches.get()
					sum[0] += s.nn.nearScanned
					sum[1] += s.nn.nearestScanned
					rrtScratches.put(s)
				}
			}
			if want := planScanCounts[key]; sum != want {
				t.Errorf("%s: scanned (near, nearest) = %v, want %v", key, sum, want)
			}
		}
	}
}

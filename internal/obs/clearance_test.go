package obs

import (
	"math"
	"testing"
	"time"

	"repro/internal/geom"
)

// exhaustiveMinClearance is the unpruned reference: the exact clearance of
// every airborne sample, minimised with a set flag.
func exhaustiveMinClearance(ws *geom.Workspace, samples []TrajectorySample) float64 {
	lo, have := 0.0, false
	for _, s := range samples {
		if s.Landed {
			continue
		}
		if c := ws.Clearance(s.Pos); !have || c < lo {
			lo, have = c, true
		}
	}
	return lo
}

// TestMinClearanceKeepsGenuineZero: a sample inside an obstacle has
// clearance 0, and a later sample in free space must not overwrite it — a
// drone that keeps flying through a house has touched it.
func TestMinClearanceKeepsGenuineZero(t *testing.T) {
	ws := geom.CityWorkspace()
	sink := NewMetricsSink(ws)
	inside, outside := geom.V(10, 10, 4), geom.V(3, 3, 2)
	if ws.Clearance(inside) != 0 || ws.Clearance(outside) != 2 {
		t.Fatalf("fixture: clearances %v, %v", ws.Clearance(inside), ws.Clearance(outside))
	}
	sink.OnTrajectorySample(TrajectorySample{T: 5 * time.Millisecond, Pos: inside})
	sink.OnTrajectorySample(TrajectorySample{T: 10 * time.Millisecond, Pos: outside})
	if got := sink.Metrics().MinClearance; got != 0 {
		t.Fatalf("MinClearance = %v after a sample inside an obstacle, want 0", got)
	}
}

// TestNodeFiredEntryPointsAgree: the typed and the boxed NodeFired paths
// count dropped firings identically.
func TestNodeFiredEntryPointsAgree(t *testing.T) {
	typed, boxed := NewMetricsSink(nil), NewMetricsSink(nil)
	for i, dropped := range []bool{true, false, true} {
		ev := NodeFired{T: time.Duration(i) * time.Millisecond, Node: "n", Dropped: dropped}
		typed.OnNodeFired(ev)
		boxed.OnEvent(ev)
	}
	if got, want := typed.Metrics().DroppedFirings, boxed.Metrics().DroppedFirings; got != 2 || want != 2 {
		t.Fatalf("dropped firings: typed %d, boxed %d, want 2", got, want)
	}
	if NodeFiredObservers([]Observer{typed, ObserverFunc(func(Event) {})}) != nil {
		t.Fatal("a list with an untyped member must fall back to the boxed path")
	}
	if len(NodeFiredObservers([]Observer{typed, boxed})) != 2 {
		t.Fatal("a list of typed members must take the typed path")
	}
}

// FuzzClearanceSkipMatchesExhaustive feeds a fuzzed trajectory — small
// steps, teleports into obstacles and out of bounds, landed samples — to a
// MetricsSink and requires its pruned MinClearance to be bit-identical to
// the exhaustive scan's.
func FuzzClearanceSkipMatchesExhaustive(f *testing.F) {
	f.Add(false, 3.0, 3.0, 2.0, 0.05, []byte{10, 0, 0, 0, 10, 0, 0, 0, 40, 40, 50, 2, 10, 5, 0, 0})
	f.Add(true, 5.0, 15.0, 2.0, 0.5, []byte{127, 0, 0, 0, 127, 0, 0, 1, 0, 200, 0, 0, 255, 255, 255, 2})
	f.Add(false, 14.5, 10.0, 4.0, 0.02, []byte{128, 0, 0, 0, 128, 0, 0, 0, 128, 0, 0, 0, 127, 0, 0, 0})
	f.Fuzz(func(t *testing.T, canyon bool, x, y, z, step float64, moves []byte) {
		for _, v := range [4]float64{x, y, z, step} {
			if math.IsNaN(v) || math.Abs(v) > 1e3 {
				t.Skip()
			}
		}
		if len(moves) > 4*512 {
			t.Skip()
		}
		ws := geom.CityWorkspace()
		if canyon {
			ws = geom.CanyonWorkspace()
		}
		pos := geom.V(x, y, z)
		samples := []TrajectorySample{{Pos: pos}}
		for ; len(moves) >= 4; moves = moves[4:] {
			b, flags := moves[:3], moves[3]
			if flags&2 != 0 {
				// Teleport anywhere in a box enclosing the workspace.
				pos = geom.V(-5+float64(b[0])*0.27, -5+float64(b[1])*0.27, -3+float64(b[2])*0.08)
			} else {
				s := step / 127
				pos = pos.Add(geom.V(float64(int8(b[0]))*s, float64(int8(b[1]))*s, float64(int8(b[2]))*s))
			}
			samples = append(samples, TrajectorySample{Pos: pos, Landed: flags&1 != 0})
		}
		sink := NewMetricsSink(ws)
		for i, s := range samples {
			s.T = time.Duration(i) * 5 * time.Millisecond
			sink.OnTrajectorySample(s)
		}
		got, want := sink.Metrics().MinClearance, exhaustiveMinClearance(ws, samples)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d samples: pruned MinClearance %v, exhaustive %v", len(samples), got, want)
		}
	})
}

package mission

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/plan"
	"repro/internal/plant"
	"repro/internal/pubsub"
	"repro/internal/rta"
)

func stepNode(t *testing.T, n *node.Node, st node.State, in pubsub.Valuation) (node.State, pubsub.Valuation) {
	t.Helper()
	next, out, err := n.Step(st, in)
	if err != nil {
		t.Fatalf("step %s: %v", n.Name(), err)
	}
	return next, out
}

func TestAppNodeAdvancesOnArrival(t *testing.T) {
	pts := []geom.Vec3{geom.V(1, 1, 1), geom.V(9, 9, 1)}
	app, err := newAppNode(AppConfig{Points: pts}, nil, 0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := app.InitState()
	// Far from the first target: it keeps publishing it.
	st, out := stepNode(t, app, st, pubsub.Valuation{
		TopicDroneState: plant.State{Pos: geom.V(5, 5, 1), Battery: 1},
	})
	if out[TopicMissionTarget].(geom.Vec3) != pts[0] {
		t.Errorf("target = %v", out[TopicMissionTarget])
	}
	// Arrived: the next target is published and the visit counted.
	st, out = stepNode(t, app, st, pubsub.Valuation{
		TopicDroneState: plant.State{Pos: pts[0], Battery: 1},
	})
	if out[TopicMissionTarget].(geom.Vec3) != pts[1] {
		t.Errorf("target after arrival = %v", out[TopicMissionTarget])
	}
	if v, ok := VisitsOf(st); !ok || v != 1 {
		t.Errorf("visits = %v %v", v, ok)
	}
	// The tour wraps around.
	st, out = stepNode(t, app, st, pubsub.Valuation{
		TopicDroneState: plant.State{Pos: pts[1], Battery: 1},
	})
	if out[TopicMissionTarget].(geom.Vec3) != pts[0] {
		t.Errorf("target after wrap = %v", out[TopicMissionTarget])
	}
	_ = st
}

func TestAppNodeRandomTargets(t *testing.T) {
	ws := geom.CityWorkspace()
	app, err := newAppNode(AppConfig{Random: true}, ws, 0.45, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := app.InitState()
	st, out := stepNode(t, app, st, pubsub.Valuation{
		TopicDroneState: plant.State{Pos: geom.V(3, 3, 2), Battery: 1},
	})
	target, ok := out[TopicMissionTarget].(geom.Vec3)
	if !ok {
		t.Fatalf("no target published: %v", out)
	}
	if !ws.FreeWithMargin(target, 0.45) {
		t.Errorf("random target %v is not free", target)
	}
	// Arriving at the random target draws a fresh one.
	_, out2 := stepNode(t, app, st, pubsub.Valuation{
		TopicDroneState: plant.State{Pos: target, Battery: 1},
	})
	if out2[TopicMissionTarget].(geom.Vec3) == target {
		t.Error("random target did not advance on arrival")
	}
}

func TestAppNodeValidation(t *testing.T) {
	if _, err := newAppNode(AppConfig{}, geom.CityWorkspace(), 0.45, 1); err == nil {
		t.Error("app without points or Random accepted")
	}
	if _, err := newAppNode(AppConfig{Random: true}, nil, 0.45, 1); err == nil {
		t.Error("random app without workspace accepted")
	}
}

func TestWaypointManagerWalksPlan(t *testing.T) {
	wpm, err := waypointManagerNode()
	if err != nil {
		t.Fatal(err)
	}
	planVal := ActivePlan{
		Waypoints: plan.Plan{geom.V(0, 0, 1), geom.V(5, 0, 1), geom.V(5, 5, 1)},
		Seq:       1,
	}
	st := wpm.InitState()
	st, out := stepNode(t, wpm, st, pubsub.Valuation{
		TopicActivePlan: planVal,
		TopicDroneState: plant.State{Pos: geom.V(0, 0, 1), Battery: 1},
	})
	wp := out[TopicWaypoint].(Waypoint)
	if !wp.Valid || wp.Target != geom.V(5, 0, 1) {
		t.Errorf("first waypoint = %+v", wp)
	}
	// Arrive at wp1: the manager advances to wp2 with the segment start at
	// the previous waypoint.
	st, out = stepNode(t, wpm, st, pubsub.Valuation{
		TopicActivePlan: planVal,
		TopicDroneState: plant.State{Pos: geom.V(4.5, 0, 1), Battery: 1},
	})
	wp = out[TopicWaypoint].(Waypoint)
	if wp.Target != geom.V(5, 5, 1) || wp.From != geom.V(5, 0, 1) {
		t.Errorf("advanced waypoint = %+v", wp)
	}
	// Short of wp2, the same plan keeps the same segment and state.
	same, out := stepNode(t, wpm, st, pubsub.Valuation{
		TopicActivePlan: planVal,
		TopicDroneState: plant.State{Pos: geom.V(5, 2, 1), Battery: 1},
	})
	if out[TopicWaypoint].(Waypoint) != wp || same != st {
		t.Errorf("no progress: waypoint %+v, state replaced: %v", out[TopicWaypoint], same != st)
	}
	// A replaced plan (new Seq) resets progress.
	newPlan := ActivePlan{
		Waypoints: plan.Plan{geom.V(4.5, 0, 1), geom.V(0, 5, 1)},
		Seq:       2,
		Landing:   true,
	}
	_, out = stepNode(t, wpm, st, pubsub.Valuation{
		TopicActivePlan: newPlan,
		TopicDroneState: plant.State{Pos: geom.V(4.5, 0, 1), Battery: 1},
	})
	wp = out[TopicWaypoint].(Waypoint)
	if wp.Target != geom.V(0, 5, 1) || !wp.Land {
		t.Errorf("waypoint after plan swap = %+v", wp)
	}
}

func TestWaypointManagerInvalidUntilPlan(t *testing.T) {
	wpm, err := waypointManagerNode()
	if err != nil {
		t.Fatal(err)
	}
	_, out := stepNode(t, wpm, wpm.InitState(), pubsub.Valuation{
		TopicActivePlan: nil,
		TopicDroneState: plant.State{Pos: geom.V(0, 0, 1), Battery: 1},
	})
	if wp := out[TopicWaypoint].(Waypoint); wp.Valid {
		t.Errorf("waypoint valid without a plan: %+v", wp)
	}
}

func TestPlannerNodeCachesUntilTargetMoves(t *testing.T) {
	ws := geom.CityWorkspace()
	astar, err := plan.NewAStar(ws, 1.0, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingPlanner{inner: astar}
	pn, err := plannerNode("p", counting, false)
	if err != nil {
		t.Fatal(err)
	}
	st := pn.InitState()
	in := pubsub.Valuation{
		TopicDroneState:    plant.State{Pos: geom.V(3, 3, 2), Battery: 1},
		TopicMissionTarget: geom.V(46, 46, 2),
	}
	st, out := stepNode(t, pn, st, in)
	if _, ok := out[TopicPlan].(plan.Plan); !ok {
		t.Fatalf("no plan published: %v", out)
	}
	if counting.calls != 1 {
		t.Fatalf("planner calls = %d", counting.calls)
	}
	// Same target: republish the cached plan, no replanning.
	st, _ = stepNode(t, pn, st, in)
	if counting.calls != 1 {
		t.Errorf("planner replanned without target change: %d", counting.calls)
	}
	// Moved target: replan.
	in[TopicMissionTarget] = geom.V(3, 46, 2)
	_, _ = stepNode(t, pn, st, in)
	if counting.calls != 2 {
		t.Errorf("planner did not replan on target change: %d", counting.calls)
	}
}

type countingPlanner struct {
	inner plan.Planner
	calls int
}

func (c *countingPlanner) Plan(start, goal geom.Vec3) (plan.Plan, error) {
	c.calls++
	return c.inner.Plan(start, goal)
}

func TestPlannerModulePredicates(t *testing.T) {
	ws := geom.CityWorkspace()
	acN, scN := plannerPair(t, ws)
	mod, err := plannerModule(acN, scN, ws, 0.45, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A plan cutting straight through a house, with the drone right at the
	// unsafe segment: ttf fires, φsafer does not hold.
	badPlan := plan.Plan{geom.V(3, 3, 2), geom.V(20, 20, 2)}
	val := pubsub.Valuation{
		TopicPlan:          badPlan,
		TopicDroneState:    plant.State{Pos: geom.V(3, 3, 2), Battery: 1},
		TopicMissionTarget: geom.V(20, 20, 2),
	}
	if !mod.TTF2Delta(val) {
		t.Error("ttf must fire on an imminent unsafe segment")
	}
	if mod.InSafer(val) {
		t.Error("φsafer must not hold with a colliding plan")
	}
	// The same bad plan far from the drone: not yet urgent, φsafe holds.
	valFar := pubsub.Valuation{
		TopicPlan:          plan.Plan{geom.V(40, 3, 2), geom.V(20, 20, 2)},
		TopicDroneState:    plant.State{Pos: geom.V(3, 3, 2), Battery: 1},
		TopicMissionTarget: geom.V(20, 20, 2),
	}
	if mod.TTF2Delta(valFar) {
		t.Error("a distant plan defect should not trip the 2Δ check")
	}
	if !mod.SafeHolds(valFar) {
		t.Error("φplan should hold while the defect is far away")
	}
	// A clean plan: φsafer holds.
	goodVal := pubsub.Valuation{
		TopicPlan:          plan.Plan{geom.V(3, 3, 2), geom.V(3, 46, 2)},
		TopicDroneState:    plant.State{Pos: geom.V(3, 3, 2), Battery: 1},
		TopicMissionTarget: geom.V(3, 46, 2),
	}
	if !mod.InSafer(goodVal) {
		t.Error("φsafer must hold with a clean plan")
	}
}

func plannerPair(t *testing.T, ws *geom.Workspace) (ac, sc *node.Node) {
	t.Helper()
	astar, err := plan.NewAStar(ws, 1.0, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	acN, err := plannerNode("planner.ac", astar, false)
	if err != nil {
		t.Fatal(err)
	}
	scN, err := plannerNode("planner.sc", astar, false)
	if err != nil {
		t.Fatal(err)
	}
	return acN, scN
}

func TestBatteryNodes(t *testing.T) {
	acB, err := batteryACNode("bac")
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Plan{geom.V(0, 0, 2), geom.V(5, 5, 2)}
	st := acB.InitState()
	st, out := stepNode(t, acB, st, pubsub.Valuation{
		TopicPlan:       p,
		TopicDroneState: plant.State{Pos: geom.V(0, 0, 2), Battery: 1},
	})
	ap := out[TopicActivePlan].(ActivePlan)
	if ap.Landing || len(ap.Waypoints) != 2 || ap.Seq != 1 {
		t.Errorf("forwarded plan = %+v", ap)
	}
	// The same plan keeps its sequence number; a new plan bumps it.
	st, out = stepNode(t, acB, st, pubsub.Valuation{
		TopicPlan:       p,
		TopicDroneState: plant.State{Pos: geom.V(0, 0, 2), Battery: 1},
	})
	if out[TopicActivePlan].(ActivePlan).Seq != 1 {
		t.Error("unchanged plan bumped Seq")
	}
	_, out = stepNode(t, acB, st, pubsub.Valuation{
		TopicPlan:       plan.Plan{geom.V(0, 0, 2), geom.V(9, 9, 2)},
		TopicDroneState: plant.State{Pos: geom.V(0, 0, 2), Battery: 1},
	})
	if out[TopicActivePlan].(ActivePlan).Seq != 2 {
		t.Error("new plan did not bump Seq")
	}

	lander, err := batteryLanderNode("bsc", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lst := lander.InitState()
	lst, out = stepNode(t, lander, lst, pubsub.Valuation{
		TopicDroneState: plant.State{Pos: geom.V(7, 8, 3.2), Battery: 0.2},
	})
	land := out[TopicActivePlan].(ActivePlan)
	if !land.Landing {
		t.Error("lander plan not marked Landing")
	}
	last := land.Waypoints[len(land.Waypoints)-1]
	if last != geom.V(7, 8, 0.5) {
		t.Errorf("touchdown waypoint = %v", last)
	}
	// The descent profile steps down without big jumps.
	for i := 1; i < len(land.Waypoints); i++ {
		dz := land.Waypoints[i-1].Z - land.Waypoints[i].Z
		if dz > 0.6+1e-9 || dz < -1e-9 {
			t.Errorf("descent step %d = %v", i, dz)
		}
	}
	// The touchdown site is pinned even if the drone drifts.
	_, out = stepNode(t, lander, lst, pubsub.Valuation{
		TopicDroneState: plant.State{Pos: geom.V(9, 9, 3), Battery: 0.2},
	})
	land2 := out[TopicActivePlan].(ActivePlan)
	if land2.Waypoints[len(land2.Waypoints)-1] != geom.V(7, 8, 0.5) {
		t.Error("touchdown site drifted")
	}
	if land2.Seq != land.Seq {
		t.Error("landing plan sequence changed")
	}
}

// TestBatteryACSeq pins the battery AC's plan sequence numbers. The same
// plan slice keeps its seq and republishes an identical value; a fresh slice
// with the same count and the same first and last waypoints at two decimals
// keeps its seq too (the fingerprint's semantics); any other plan bumps seq
// by exactly one — including a shorter slice of the same backing array and
// a same-length plan with another last waypoint, which a forwarding fast
// path keyed on too little would mistake for the previous plan.
func TestBatteryACSeq(t *testing.T) {
	acB, err := batteryACNode("bac")
	if err != nil {
		t.Fatal(err)
	}
	st := acB.InitState()
	forward := func(p plan.Plan) ActivePlan {
		t.Helper()
		var out pubsub.Valuation
		st, out = stepNode(t, acB, st, pubsub.Valuation{
			TopicPlan:       p,
			TopicDroneState: plant.State{Pos: geom.V(0, 0, 2), Battery: 1},
		})
		ap := out[TopicActivePlan].(ActivePlan)
		if !reflect.DeepEqual(ap.Waypoints, p) || ap.Landing {
			t.Errorf("forwarded %+v for plan %v", ap, p)
		}
		return ap
	}
	p := plan.Plan{geom.V(0, 0, 2), geom.V(2, 3, 2), geom.V(5, 5, 2)}
	first := forward(p)
	if first.Seq != 1 {
		t.Fatalf("first plan seq = %d, want 1", first.Seq)
	}
	if same := forward(p); !reflect.DeepEqual(same, first) {
		t.Errorf("same plan slice republished %+v, want %+v", same, first)
	}
	fresh := plan.Plan{geom.V(0.001, 0, 2), geom.V(4, 1, 2), geom.V(5, 5, 2.004)}
	if ap := forward(fresh); ap.Seq != 1 {
		t.Errorf("fresh slice with the same fingerprint: seq = %d, want 1", ap.Seq)
	}
	for i, next := range []plan.Plan{
		fresh[:2], // same backing array, shorter
		{geom.V(0.001, 0, 2), geom.V(4, 1, 2), geom.V(5, 6, 2)},
		p,
	} {
		if ap := forward(next); ap.Seq != uint64(i+2) {
			t.Errorf("changed plan %v: seq = %d, want %d", next, ap.Seq, i+2)
		}
	}
}

// TestBatteryACForwardAllocatesNothing: forwarding the plan slice the AC
// forwarded last firing republishes its boxed value — no fingerprint, no
// clone, no allocation.
func TestBatteryACForwardAllocatesNothing(t *testing.T) {
	acB, err := batteryACNode("bac")
	if err != nil {
		t.Fatal(err)
	}
	in := pubsub.Valuation{
		TopicPlan:       plan.Plan{geom.V(0, 0, 2), geom.V(5, 5, 2)},
		TopicDroneState: plant.State{Pos: geom.V(0, 0, 2), Battery: 1},
	}
	st, _ := stepNode(t, acB, acB.InitState(), in)
	var stepErr error
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := acB.Step(st, in); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Errorf("forwarding an unchanged plan allocates %.1f objects, want 0", allocs)
	}
}

func TestBatteryModulePredicates(t *testing.T) {
	mon, err := battery.NewMonitor(battery.Config{
		Params: plant.DefaultParams(), Delta: 2 * time.Second, MaxHeight: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	acB, _ := batteryACNode("bac")
	scB, _ := batteryLanderNode("bsc", 0.5)
	mod, err := batteryModule(acB, scB, mon)
	if err != nil {
		t.Fatal(err)
	}
	low := pubsub.Valuation{TopicDroneState: plant.State{Battery: 0.01}}
	high := pubsub.Valuation{TopicDroneState: plant.State{Battery: 0.95}}
	if mod.Decide(rta.ModeAC, low) != rta.ModeSC {
		t.Error("low battery must disengage")
	}
	if mod.Decide(rta.ModeAC, high) != rta.ModeAC {
		t.Error("high battery must keep AC")
	}
	if mod.Decide(rta.ModeSC, high) != rta.ModeAC {
		t.Error("recharged battery must re-engage")
	}
	// Missing state fails safe.
	empty := pubsub.Valuation{TopicDroneState: nil}
	if mod.Decide(rta.ModeAC, empty) != rta.ModeSC {
		t.Error("missing state must fail safe to SC")
	}
}

func TestBuildStackShapes(t *testing.T) {
	base := DefaultStackConfig(1)
	base.App = AppConfig{Points: []geom.Vec3{geom.V(3, 3, 2)}}

	t.Run("full stack", func(t *testing.T) {
		st, err := Build(base)
		if err != nil {
			t.Fatal(err)
		}
		if st.PrimitiveModule == nil || st.PlannerModule == nil || st.BatteryModule == nil {
			t.Error("full stack missing modules")
		}
		if got := len(st.System.Modules()); got != 3 {
			t.Errorf("modules = %d, want 3", got)
		}
	})
	t.Run("motion only", func(t *testing.T) {
		cfg := base
		cfg.WithPlannerModule = false
		cfg.WithBatteryModule = false
		st, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.System.Modules()) != 1 || st.PrimitiveModule == nil {
			t.Error("motion-only stack wrong")
		}
	})
	t.Run("ac only baseline", func(t *testing.T) {
		cfg := base
		cfg.Protection = ProtectACOnly
		st, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.PrimitiveModule != nil {
			t.Error("AC-only baseline must not have a primitive module")
		}
	})
}

// TestBuildRejectsUnsetKnobs: DefaultStackConfig is the only table of stack
// defaults, so a knob left zero reaches Build as zero and is refused there
// instead of silently running a default.
func TestBuildRejectsUnsetKnobs(t *testing.T) {
	for name, unset := range map[string]func(*StackConfig){
		"motion-delta": func(c *StackConfig) { c.MotionDelta = 0 },
		"hysteresis":   func(c *StackConfig) { c.Hysteresis = 0 },
		"protection":   func(c *StackConfig) { c.Protection = 0 },
		"ac":           func(c *StackConfig) { c.AC = 0 },
		"plan-margin":  func(c *StackConfig) { c.PlanMargin = 0 },
		"planner-bug-rate": func(c *StackConfig) {
			c.PlannerBug, c.PlannerBugRate = plan.BugSkipEdgeCheck, 0
		},
	} {
		cfg := DefaultStackConfig(1)
		cfg.App = AppConfig{Points: []geom.Vec3{geom.V(3, 3, 2)}}
		unset(&cfg)
		if _, err := build(cfg, false); err == nil {
			t.Errorf("Build accepted an unset %s", name)
		}
	}
}

func TestStackCertificates(t *testing.T) {
	cfg := DefaultStackConfig(2)
	cfg.App = AppConfig{Points: []geom.Vec3{geom.V(3, 3, 2)}}
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	certs, err := st.Certificates(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(certs) != 3 {
		t.Fatalf("certificates = %d, want 3", len(certs))
	}
	// Theorem 4.1: every module in the composed stack discharges its
	// obligations, hence the system satisfies φplan ∧ φmpr ∧ φbat.
	if err := st.System.VerifyAll(certs); err != nil {
		t.Errorf("VerifyAll: %v", err)
	}
}

func TestProtectionModeString(t *testing.T) {
	if ProtectRTA.String() != "rta" || ProtectACOnly.String() != "ac-only" ||
		ProtectSCOnly.String() != "sc-only" || ProtectionMode(9).String() == "" {
		t.Error("ProtectionMode.String wrong")
	}
}

// TestEnumParseRoundTrip: ParseProtection and ParseACKind invert String for
// every value, and an unknown name (the zero value's, too) is refused with
// the valid names listed.
func TestEnumParseRoundTrip(t *testing.T) {
	for m := ProtectRTA; int(m) < len(protectionNames); m++ {
		if got, err := ParseProtection(m.String()); got != m || err != nil {
			t.Errorf("ParseProtection(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for k := ACAggressive; int(k) < len(acNames); k++ {
		if got, err := ParseACKind(k.String()); got != k || err != nil {
			t.Errorf("ParseACKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, tc := range []struct {
		parse func(string) error
		names []string
	}{
		{func(s string) error { _, err := ParseProtection(s); return err }, protectionNames[1:]},
		{func(s string) error { _, err := ParseACKind(s); return err }, acNames[1:]},
	} {
		for _, bad := range []string{"", "nope", "RTA"} {
			err := tc.parse(bad)
			if err == nil {
				t.Errorf("unknown name %q accepted", bad)
				continue
			}
			for _, name := range tc.names {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("error %q does not list %q", err, name)
				}
			}
		}
	}
}

// TestAppendFingerprintMatchesFmt holds the battery AC's allocation-free
// plan fingerprint byte-identical to the fmt format it replaced, across
// rounding ties, signed zeros, huge magnitudes and non-finite values.
func TestAppendFingerprintMatchesFmt(t *testing.T) {
	ref := func(pts []geom.Vec3) string {
		if len(pts) == 0 {
			return ""
		}
		first, last := pts[0], pts[len(pts)-1]
		return fmt.Sprintf("%d|%.2f,%.2f,%.2f|%.2f,%.2f,%.2f",
			len(pts), first.X, first.Y, first.Z, last.X, last.Y, last.Z)
	}
	specials := []float64{0, math.Copysign(0, -1), 0.005, 0.015, 1.005, 2.675, -2.675, -0.004,
		1e21, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(1))
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(8)))
	}
	var buf []byte
	for i := 0; i < 5000; i++ {
		pts := make([]geom.Vec3, rng.Intn(4))
		for j := range pts {
			pts[j] = geom.V(pick(), pick(), pick())
		}
		buf = appendFingerprint(buf[:0], pts)
		if got, want := string(buf), ref(pts); got != want {
			t.Fatalf("fingerprint(%v) = %q, fmt gives %q", pts, got, want)
		}
	}
}

package main

import (
	"fmt"
	"time"

	"repro/internal/mission"
	"repro/internal/obs"
	"repro/internal/rta"
)

// layer is a module of the mission stack that the tracer charges time to.
type layer uint8

const (
	layerRuntime layer = iota
	layerDM
	layerControllerAC
	layerControllerSC
	layerRRTStar
	layerAStar
	layerMissionNodes
	layerPlant
	numLayers
)

var layerNames = [numLayers]string{
	layerRuntime:      "runtime",
	layerDM:           "rta.dm",
	layerControllerAC: "controller.ac",
	layerControllerSC: "controller.sc",
	layerRRTStar:      "plan.rrtstar",
	layerAStar:        "plan.astar",
	layerMissionNodes: "mission.nodes",
	layerPlant:        "plant",
}

// layerMap maps every node of the stack to its layer by role: decision
// modules through IsDM, AC/SC nodes through ControllerOf and the module they
// belong to, plain nodes by the names mission.Build gives them. A node it
// cannot place is an error, so a new node type cannot drop out of the trace
// unnoticed.
func layerMap(st *mission.Stack) (map[string]layer, error) {
	sys := st.System
	out := make(map[string]layer, len(sys.NodeNames()))
	for _, name := range sys.NodeNames() {
		l, ok := nodeLayer(st, name)
		if !ok {
			return nil, fmt.Errorf("perfbench: node %q maps to no layer", name)
		}
		out[name] = l
	}
	return out, nil
}

func nodeLayer(st *mission.Stack, name string) (layer, bool) {
	sys := st.System
	if _, ok := sys.IsDM(name); ok {
		return layerDM, true
	}
	if m, isAC, ok := sys.ControllerOf(name); ok {
		switch {
		case m == st.PrimitiveModule && isAC:
			return layerControllerAC, true
		case m == st.PrimitiveModule:
			return layerControllerSC, true
		case m == st.PlannerModule && isAC:
			return layerRRTStar, true
		case m == st.PlannerModule:
			return layerAStar, true
		case m == st.BatteryModule:
			return layerMissionNodes, true
		}
		return 0, false
	}
	switch {
	case st.AppNode != nil && name == st.AppNode.Name(), name == "wpmanager", name == "planfwd":
		return layerMissionNodes, true
	case name == "planner": // the certified A* planner running unprotected
		return layerAStar, true
	}
	return 0, false
}

// span is one traced interval. Root is the id shared by the spans of one
// mission (or job); every span's parent is that mission's root span, the
// one named "mission" (or "job").
type span struct {
	Root  int    `json:"root"`
	Name  string `json:"name"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer is the per-mission observer of the traced run. It stamps wall time
// at NodeFired, TimeProgress and TrajectorySample and charges each interval
// to the layer whose boundary opened it:
//
//   - NodeFired → the node's layer (a dropped firing → runtime);
//   - TimeProgress → runtime (ordering the firing set) until the first node;
//   - TrajectorySample → plant, one physics sub-step per interval, and the
//     last sub-step's interval up to TimeProgress (publishing the estimate).
//
// The interval from an instant's last node to the next instant's first
// sub-step also contains that sub-step. The tracer holds it until the
// Advance ends and moves the Advance's mean sub-step (or the run's mean,
// for a one-step Advance) from the node to plant.
type tracer struct {
	layers  map[string]layer
	base    time.Time
	mission int
	// keep records this mission's spans; they stay in memory until the run
	// writes them out.
	keep  bool
	spans []span

	last     time.Duration
	cur      layer
	curName  string
	heldNext bool // the next sub-step interval also holds a node's tail
	held     struct {
		active   bool
		l        layer
		name     string
		start, d time.Duration
	}
	advN   int
	advSum time.Duration

	self       [numLayers]time.Duration
	firings    [numLayers]int64
	allFirings int64
	substeps   int64
	subN       int64
	subSum     time.Duration
	switches   int64
	clamped    int64
	ended      bool
}

func newTracer(st *mission.Stack, base time.Time, id int, keep bool) (*tracer, error) {
	layers, err := layerMap(st)
	if err != nil {
		return nil, err
	}
	return &tracer{layers: layers, base: base, mission: id, keep: keep}, nil
}

// Interests implements obs.Interested.
func (t *tracer) Interests() obs.KindSet {
	return obs.Kinds(obs.KindRunStart, obs.KindRunEnd, obs.KindNodeFired,
		obs.KindTimeProgress, obs.KindTrajectorySample, obs.KindModeSwitch)
}

// OnEvent implements obs.Observer.
func (t *tracer) OnEvent(e obs.Event) {
	now := time.Since(t.base)
	switch ev := e.(type) {
	case obs.RunStart:
		t.last = now
		t.cur, t.curName, t.heldNext = layerRuntime, "runtime", true
	case obs.NodeFired:
		t.charge(now)
		t.allFirings++
		t.cur, t.curName = layerRuntime, ev.Node
		if !ev.Dropped {
			t.cur = t.layers[ev.Node]
			t.firings[t.cur]++
		}
		t.heldNext = true
	case obs.TimeProgress:
		t.charge(now)
		t.release()
		t.cur, t.curName, t.heldNext = layerRuntime, "runtime", false
	case obs.TrajectorySample:
		t.OnTrajectorySample(ev)
	case obs.ModeSwitch:
		t.switches++
		if ev.Reason == rta.ReasonClamped {
			t.clamped++
		}
	case obs.RunEnd:
		t.charge(now)
		t.release()
		t.ended = true
	}
}

// OnTrajectorySample implements obs.TrajectoryObserver, which keeps the
// simulator on its unboxed per-sub-step path.
func (t *tracer) OnTrajectorySample(obs.TrajectorySample) {
	now := time.Since(t.base)
	t.substeps++
	if t.heldNext {
		t.held.active, t.held.l, t.held.name = true, t.cur, t.curName
		t.held.start, t.held.d = t.last, now-t.last
		t.last, t.heldNext, t.advN, t.advSum = now, false, 0, 0
		t.cur, t.curName = layerPlant, "plant.substep"
		return
	}
	if t.cur == layerPlant {
		t.advN++
		t.advSum += now - t.last
	}
	t.charge(now)
	t.cur, t.curName = layerPlant, "plant.substep"
}

// charge books the interval since the last boundary to the current layer.
func (t *tracer) charge(now time.Duration) {
	t.self[t.cur] += now - t.last
	t.record(t.curName, t.cur, t.last, now)
	t.last = now
}

// release settles a held node-plus-sub-step interval once the Advance's
// sub-step cost is known.
func (t *tracer) release() {
	t.subN += int64(t.advN)
	t.subSum += t.advSum
	if !t.held.active {
		return
	}
	t.held.active = false
	var step time.Duration
	switch {
	case t.advN > 0:
		step = t.advSum / time.Duration(t.advN)
	case t.subN > 0:
		step = t.subSum / time.Duration(t.subN)
	}
	step = min(step, t.held.d)
	split := t.held.start + t.held.d - step
	t.self[t.held.l] += t.held.d - step
	t.self[layerPlant] += step
	t.record(t.held.name, t.held.l, t.held.start, split)
	t.record("plant.substep", layerPlant, split, t.held.start+t.held.d)
}

func (t *tracer) record(name string, l layer, start, end time.Duration) {
	if !t.keep {
		return
	}
	t.spans = append(t.spans, span{
		Root: t.mission, Name: name, Layer: layerNames[l], Start: int64(start), End: int64(end),
	})
}

// recordMission adds the mission's root span, Build start to result, once
// the mission is over.
func (t *tracer) recordMission(start, end time.Time) {
	if !t.keep {
		return
	}
	t.spans = append(t.spans, span{
		Root: t.mission, Name: "mission", Layer: "fleet", Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)),
	})
}

// covered is the wall time between RunStart and RunEnd that the tracer
// charged to layers.
func (t *tracer) covered() time.Duration {
	var sum time.Duration
	for _, d := range t.self {
		sum += d
	}
	return sum
}

// layerTotals sums the tracers of one traced phase.
type layerTotals struct {
	missions   int
	self       [numLayers]time.Duration
	firings    [numLayers]int64
	allFirings int64
	substeps   int64
	switches   int64
	clamped    int64
	covered    time.Duration
}

func (a *layerTotals) add(t *tracer) {
	a.missions++
	for l := range numLayers {
		a.self[l] += t.self[l]
		a.firings[l] += t.firings[l]
	}
	a.allFirings += t.allFirings
	a.substeps += t.substeps
	a.switches += t.switches
	a.clamped += t.clamped
	a.covered += t.covered()
}

// metrics renders the per-mission layer metrics (means over the traced
// missions).
func (a *layerTotals) metrics(out map[string]float64) {
	n := float64(a.missions)
	perMission := func(d time.Duration) float64 { return ratio(ms(d), n) }
	count := func(c int64) float64 { return ratio(float64(c), n) }
	out["runtime.firings"] = count(a.allFirings)
	out["runtime.self_ms"] = perMission(a.self[layerRuntime])
	out["rta.dm.firings"] = count(a.firings[layerDM])
	out["rta.dm.self_ms"] = perMission(a.self[layerDM])
	out["rta.dm.us_per_firing"] = 1000 * ratio(ms(a.self[layerDM]), float64(a.firings[layerDM]))
	out["rta.switches"] = count(a.switches)
	out["rta.clamped"] = count(a.clamped)
	out["controller.ac.self_ms"] = perMission(a.self[layerControllerAC])
	out["controller.sc.self_ms"] = perMission(a.self[layerControllerSC])
	out["controller.firings"] = count(a.firings[layerControllerAC] + a.firings[layerControllerSC])
	out["plan.rrtstar.firings"] = count(a.firings[layerRRTStar])
	out["plan.rrtstar.self_ms"] = perMission(a.self[layerRRTStar])
	out["plan.rrtstar.ms_per_firing"] = ratio(ms(a.self[layerRRTStar]), float64(a.firings[layerRRTStar]))
	out["plan.astar.firings"] = count(a.firings[layerAStar])
	out["plan.astar.self_ms"] = perMission(a.self[layerAStar])
	out["mission.nodes.firings"] = count(a.firings[layerMissionNodes])
	out["mission.nodes.self_ms"] = perMission(a.self[layerMissionNodes])
	out["plant.substeps"] = count(a.substeps)
	out["plant.self_ms"] = perMission(a.self[layerPlant])
	out["plant.us_per_substep"] = 1000 * ratio(ms(a.self[layerPlant]), float64(a.substeps))
}

// shares gives each layer's fraction of the traced time, for the result
// file.
func (a *layerTotals) shares() map[string]float64 {
	out := make(map[string]float64, numLayers)
	for l := range numLayers {
		out[layerNames[l]] = ratio(float64(a.self[l]), float64(a.covered))
	}
	return out
}

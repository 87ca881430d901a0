package mission

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/battery"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/plan"
	"repro/internal/pubsub"
	"repro/internal/rta"
)

// batteryFwdState tracks plan sequence numbers for the battery AC node.
type batteryFwdState struct {
	seq      uint64
	lastPlan string // fingerprint of the last forwarded plan
	// src is the plan slice last forwarded and pub the boxed ActivePlan
	// published for it. Published values are immutable, so while TopicPlan
	// holds the same slice the node republishes pub as is.
	src plan.Plan
	pub pubsub.Value
}

// batteryNodePeriod is the period of the battery module's AC and SC nodes
// (and of the plan forwarder that stands in for the AC without the module).
const batteryNodePeriod = 200 * time.Millisecond

// batteryACNode builds the battery module's advanced controller: a node
// that receives the current motion plan from the planner and simply forwards
// it to the motion primitives (Section V-B).
func batteryACNode(name string) (*node.Node, error) {
	out := make(pubsub.Valuation, 1) // refilled every firing (node.StepFunc)
	var fp []byte                    // fingerprint scratch, likewise reused
	step := func(st node.State, in pubsub.Valuation) (node.State, pubsub.Valuation, error) {
		s, ok := st.(*batteryFwdState)
		if !ok {
			return nil, nil, fmt.Errorf("battery AC: bad state type %T", st)
		}
		p, havePlan := currentPlan(in)
		if !havePlan {
			return s, nil, nil
		}
		if len(p) == len(s.src) && &p[0] == &s.src[0] {
			out[TopicActivePlan] = s.pub
			return s, out, nil
		}
		next := *s
		fp = appendFingerprint(fp[:0], p)
		if string(fp) != s.lastPlan {
			next.seq++
			next.lastPlan = string(fp)
		}
		next.src = p
		next.pub = ActivePlan{Waypoints: p.Clone(), Landing: false, Seq: next.seq}
		out[TopicActivePlan] = next.pub
		return &next, out, nil
	}
	return node.New(
		name,
		batteryNodePeriod,
		[]pubsub.TopicName{TopicPlan, TopicDroneState},
		[]pubsub.TopicName{TopicActivePlan},
		step,
		node.WithInit(func() node.State { return &batteryFwdState{} }),
	)
}

// landerState remembers the fixed touchdown point chosen when the lander
// engaged, so the landing plan does not chase the drifting drone.
type landerState struct {
	engaged bool
	site    geom.Vec3
	seq     uint64
	plan    []geom.Vec3
	pub     pubsub.Value // the boxed landing plan, republished once engaged
}

// descentProfile builds a stepped landing plan: hold position laterally and
// descend in 0.6 m increments, so the (possibly aggressive) motion primitive
// executing it never builds up a dangerous sink rate — part of what makes
// the lander a certified safe controller.
func descentProfile(from, site geom.Vec3) []geom.Vec3 {
	wps := []geom.Vec3{from, geom.V(site.X, site.Y, from.Z)}
	z := from.Z
	for z-0.6 > site.Z {
		z -= 0.6
		wps = append(wps, geom.V(site.X, site.Y, z))
	}
	return append(wps, site)
}

// batteryLanderNode builds the battery module's certified safe controller:
// a planner that safely lands the drone from its current position
// (Section V-B). It publishes a landing plan: descend in place to the
// landing altitude landingZ, the plant's touchdown altitude.
func batteryLanderNode(name string, landingZ float64) (*node.Node, error) {
	if landingZ <= 0 {
		return nil, fmt.Errorf("battery lander: landingZ must be positive")
	}
	out := make(pubsub.Valuation, 1) // refilled every firing (node.StepFunc)
	step := func(st node.State, in pubsub.Valuation) (node.State, pubsub.Valuation, error) {
		s, ok := st.(*landerState)
		if !ok {
			return nil, nil, fmt.Errorf("battery lander: bad state type %T", st)
		}
		ds, haveState := droneState(in)
		if !haveState {
			return s, nil, nil
		}
		if s.engaged {
			out[TopicActivePlan] = s.pub
			return s, out, nil
		}
		next := *s
		next.engaged = true
		// Landing-plan sequence numbers live in their own range so they
		// never collide with the AC's forwarded-plan sequence numbers.
		next.seq = 1 << 62
		next.site = geom.V(ds.Pos.X, ds.Pos.Y, landingZ)
		next.plan = descentProfile(ds.Pos, next.site)
		next.pub = ActivePlan{
			Waypoints: next.plan,
			Landing:   true,
			Seq:       next.seq,
		}
		out[TopicActivePlan] = next.pub
		return &next, out, nil
	}
	return node.New(
		name,
		batteryNodePeriod,
		[]pubsub.TopicName{TopicDroneState},
		[]pubsub.TopicName{TopicActivePlan},
		step,
		node.WithInit(func() node.State { return &landerState{} }),
	)
}

// batteryModule declares the battery-safety RTA module guaranteeing φbat
// with the predicates of the battery monitor: ttf2Δ(bt) = bt − cost* < Tmax,
// φsafer = bt > 85%, φsafe = bt > 0 (or landed).
func batteryModule(ac, sc *node.Node, mon *battery.Monitor) (*rta.Module, error) {
	return rta.NewModule(rta.Decl{
		Name:      "battery-safety",
		AC:        ac,
		SC:        sc,
		Delta:     mon.Delta(),
		Monitored: []pubsub.TopicName{TopicDroneState},
		TTF2Delta: func(v pubsub.Valuation) bool {
			ds, ok := droneState(v)
			if !ok {
				return true // unknown charge: fail safe
			}
			return mon.TTF2Delta(ds.Battery)
		},
		InSafer: func(v pubsub.Valuation) bool {
			ds, ok := droneState(v)
			if !ok {
				return false
			}
			return mon.InSafer(ds.Battery)
		},
		Safe: func(v pubsub.Valuation) bool {
			ds, ok := droneState(v)
			if !ok {
				return true
			}
			return mon.Safe(ds.Battery, ds.Landed)
		},
	})
}

// appendFingerprint appends a cheap summary of a waypoint list, for change
// detection, to dst: the waypoint count and the first and last waypoints at
// two decimals — byte for byte fmt's "%d|%.2f,%.2f,%.2f|%.2f,%.2f,%.2f" —
// and nothing for an empty list.
func appendFingerprint(dst []byte, pts []geom.Vec3) []byte {
	if len(pts) == 0 {
		return dst
	}
	first, last := pts[0], pts[len(pts)-1]
	dst = strconv.AppendInt(dst, int64(len(pts)), 10)
	for i, f := range [6]float64{first.X, first.Y, first.Z, last.X, last.Y, last.Z} {
		sep := byte(',')
		if i%3 == 0 {
			sep = '|'
		}
		dst = strconv.AppendFloat(append(dst, sep), f, 'f', 2, 64)
	}
	return dst
}

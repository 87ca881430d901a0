// Command multidrone composes two independently RTA-protected drones into
// one system — the multi-robot direction the paper sketches in Section VII —
// and links them with coordinated switching: when drone A's decision module
// disengages (loss of trust in A's advanced controller), drone B is demoted
// to its safe controller in the same instant, modelling shared distrust
// (e.g. both drones consume the same perception pipeline).
//
// Theorem 4.1 does the heavy lifting: each drone's motion module is
// well-formed on its own topic namespace, their outputs are disjoint, so the
// composition satisfies both safety invariants — which the executor's φInv
// monitor checks at every DM step while faults are injected into drone A.
//
// The closing claim is printed only when claim accepts what the run
// observed; main_test.go holds the same function to the real run.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	soter "repro"
	"repro/internal/controller"
	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/plant"
	"repro/internal/reach"
)

// droneRig bundles one drone's nodes, module and plant, and the state the
// run leaves it in.
type droneRig struct {
	name     string
	module   *soter.Module
	tourNode *soter.Node
	plant    *plant.Drone
	state    plant.State
	stateT   soter.TopicName
	wpT      soter.TopicName
	cmdT     soter.TopicName
	crashed  bool
	mode     soter.Mode
}

// result is what one run observed: the φInv monitor's first report (nil if
// φInv held for both modules), each drone's state at the end, and drone-b's
// demotions forced by drone-a's disengagements.
type result struct {
	violation   *soter.InvariantViolationEvent
	drones      []*droneRig
	coordinated []soter.ModeSwitchEvent
}

// claim reports why the closing sentence would be false for res, or nil if
// it holds: φInv held, neither drone crashed, and the coordination link
// demoted drone-b at least once.
func claim(res result) error {
	if v := res.violation; v != nil {
		return fmt.Errorf("φInv violated at t=%v in module %q", v.T, v.Module)
	}
	for _, d := range res.drones {
		if d.crashed {
			return fmt.Errorf("%s crashed — composed invariant broken", d.name)
		}
	}
	if len(res.coordinated) == 0 {
		return errors.New("expected at least one coordinated demotion")
	}
	return nil
}

func main() {
	fmt.Println("two RTA-protected drones, coordinated switching drone-a → drone-b")
	res, err := run()
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range res.drones {
		fmt.Printf("%s: pos=%v crashed=%v final mode=%v\n", d.name, d.state.Pos, d.crashed, d.mode)
	}
	fmt.Printf("\ncoordinated demotions of drone-b: %d\n", len(res.coordinated))
	for i, sw := range res.coordinated[:min(5, len(res.coordinated))] {
		fmt.Printf("  %d: t=%v %s forced %v→%v by drone-a's disengagement\n",
			i+1, sw.T.Round(10*time.Millisecond), sw.Module, sw.From, sw.To)
	}
	if n := len(res.coordinated) - 5; n > 0 {
		fmt.Printf("  ... and %d more\n", n)
	}
	if err := claim(res); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nφInv held for both modules (Theorem 4.1) throughout the faulted mission.")
}

// run flies both drones for 60 s and returns what it observed. A φInv
// violation is recorded in the result, not returned as an error.
func run() (result, error) {
	var res result
	ws := geom.CityWorkspace()
	// Both drones fly the evaluation stack's plant and share its
	// motion-module analyzer.
	cfg := mission.DefaultStackConfig(0)
	cfg.Workspace = ws
	params := cfg.PlantParams
	limits := controller.Limits{MaxAccel: params.MaxAccel, MaxVel: params.MaxVel}
	analyzer, err := mission.MotionAnalyzer(cfg)
	if err != nil {
		return res, err
	}

	// Drone A flies the outer tour with a faulty AC; drone B patrols the
	// middle with a clean one.
	rigA, err := buildDrone("drone-a", analyzer, limits, params,
		[]geom.Vec3{geom.V(3, 3, 2), geom.V(46, 3, 2), geom.V(46, 46, 2), geom.V(3, 46, 2)},
		[]controller.Fault{
			{Kind: controller.FaultFullThrust, Start: 8 * time.Second, End: 9500 * time.Millisecond, Param: geom.V(1, 0.4, 0)},
			{Kind: controller.FaultFullThrust, Start: 25 * time.Second, End: 26500 * time.Millisecond, Param: geom.V(0.3, 1, 0)},
		})
	if err != nil {
		return res, err
	}
	rigB, err := buildDrone("drone-b", analyzer, limits, params,
		[]geom.Vec3{geom.V(20, 16, 3), geom.V(34, 17, 3), geom.V(36, 34, 3), geom.V(20, 33, 3)},
		nil)
	if err != nil {
		return res, err
	}

	sys, err := soter.NewSystem(
		[]*soter.Module{rigA.module, rigB.module},
		[]*soter.Node{rigA.tourNode, rigB.tourNode},
	)
	if err != nil {
		return res, err
	}
	// The Section VII link: distrust of A demotes B.
	if err := sys.AddCoordination("drone-a", "drone-b"); err != nil {
		return res, err
	}

	rigs := []*droneRig{rigA, rigB}
	env := soter.EnvironmentFunc(func(prev, now time.Duration, topics *soter.Store) error {
		for _, rig := range rigs {
			if err := rig.advance(ws, prev, now, topics); err != nil {
				return err
			}
		}
		return nil
	})

	exec, err := soter.NewExecutor(sys,
		[]soter.Topic{
			{Name: rigA.stateT, Default: rigA.state},
			{Name: rigB.stateT, Default: rigB.state},
		},
		soter.WithEnvironment(env),
		soter.WithObservers(soter.ObserverFunc(func(e soter.Event) {
			switch e := e.(type) {
			case soter.ModeSwitchEvent:
				if e.Coordinated {
					res.coordinated = append(res.coordinated, e)
				}
			case soter.InvariantViolationEvent:
				if res.violation == nil {
					res.violation = &e
				}
			}
		})),
	)
	if err != nil {
		return res, err
	}

	if err := exec.RunUntil(60 * time.Second); err != nil {
		return res, err
	}
	for _, rig := range rigs {
		if rig.mode, err = exec.Mode(rig.name); err != nil {
			return res, err
		}
	}
	res.drones = rigs
	return res, nil
}

// buildDrone assembles one drone's tour node, AC/SC primitive nodes and RTA
// module on its own topic namespace.
func buildDrone(name string, analyzer *reach.Analyzer, limits controller.Limits, params plant.Params, tour []geom.Vec3, faults []controller.Fault) (*droneRig, error) {
	rig := &droneRig{
		name:   name,
		stateT: soter.TopicName(name + "/state"),
		wpT:    soter.TopicName(name + "/wp"),
		cmdT:   soter.TopicName(name + "/cmd"),
	}
	dr, err := plant.NewDrone(params, int64(len(name)))
	if err != nil {
		return nil, err
	}
	rig.plant = dr
	rig.state = plant.State{Pos: tour[len(tour)-1], Battery: 1}

	stateOf := func(v soter.Valuation) (plant.State, bool) {
		s, ok := v[rig.stateT].(plant.State)
		return s, ok
	}

	// The tour node publishes the current waypoint, advancing on arrival.
	rig.tourNode, err = soter.NewNode(name+".tour", 100*time.Millisecond,
		[]soter.TopicName{rig.stateT}, []soter.TopicName{rig.wpT},
		func(st soter.State, in soter.Valuation) (soter.State, soter.Valuation, error) {
			idx, _ := st.(int)
			s, ok := stateOf(in)
			if ok && s.Pos.Dist(tour[idx%len(tour)]) < 1.0 {
				idx++
			}
			return idx, soter.Valuation{rig.wpT: tour[idx%len(tour)]}, nil
		},
		soter.WithInit(func() soter.State { return 0 }))
	if err != nil {
		return nil, err
	}

	mkPrimitive := func(suffix string, ctrl controller.Controller) (*soter.Node, error) {
		return soter.NewNode(name+suffix, 20*time.Millisecond,
			[]soter.TopicName{rig.stateT, rig.wpT}, []soter.TopicName{rig.cmdT},
			func(st soter.State, in soter.Valuation) (soter.State, soter.Valuation, error) {
				t, _ := st.(time.Duration)
				next := t + 20*time.Millisecond
				s, ok := stateOf(in)
				if !ok {
					return next, nil, nil
				}
				target, ok := in[rig.wpT].(geom.Vec3)
				if !ok {
					target = s.Pos
				}
				return next, soter.Valuation{rig.cmdT: ctrl.Control(t, s.Pos, s.Vel, target)}, nil
			},
			soter.WithInit(func() soter.State { return time.Duration(0) }))
	}
	var ac controller.Controller = controller.NewAggressive(limits)
	if len(faults) > 0 {
		ac = controller.WithFaults(ac, limits, faults)
	}
	acNode, err := mkPrimitive(".ac", ac)
	if err != nil {
		return nil, err
	}
	scNode, err := mkPrimitive(".sc", controller.NewSafe(analyzer, limits, 20*time.Millisecond))
	if err != nil {
		return nil, err
	}

	rig.module, err = soter.NewRTAModule(soter.ModuleDecl{
		Name:  name,
		AC:    acNode,
		SC:    scNode,
		Delta: analyzer.Delta(),
		TTF2Delta: func(v soter.Valuation) bool {
			s, ok := stateOf(v)
			return !ok || analyzer.TTF2Delta(s.Pos, s.Vel)
		},
		InSafer: func(v soter.Valuation) bool {
			s, ok := stateOf(v)
			return ok && analyzer.InSafer(s.Pos, s.Vel)
		},
		Safe: func(v soter.Valuation) bool {
			s, ok := stateOf(v)
			return !ok || analyzer.Safe(s.Pos, s.Vel)
		},
	})
	if err != nil {
		return nil, err
	}
	return rig, nil
}

// advance integrates this drone's plant over [prev, now] and publishes its
// state.
func (r *droneRig) advance(ws *geom.Workspace, prev, now time.Duration, topics *soter.Store) error {
	raw, _ := topics.Get(r.cmdT)
	cmd, _ := raw.(geom.Vec3)
	for t := prev; t < now; {
		dt := min(5*time.Millisecond, now-t)
		r.state = r.plant.Step(r.state, cmd, dt)
		t += dt
		if plant.Crashed(r.state, ws) {
			r.crashed = true
		}
	}
	return topics.Set(r.stateT, r.state)
}

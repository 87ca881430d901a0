// Package sim closes the loop between an RTA system built by
// internal/mission and the drone plant: it implements the runtime's
// Environment hook (integrating the dynamics between discrete events and
// publishing the trusted state estimate) and emits the closed-loop half of
// the run's event stream (trajectory samples, battery samples, crashes,
// touchdowns, run start/end) into the unified observer layer (internal/obs).
// The metrics the paper's evaluation reports — disengagements, crashes,
// distance flown, AC-control time fraction, mission timing — are aggregated
// from that stream by an obs.MetricsSink; callers may attach any further
// observers (JSONL tracing, bounded recorders, custom monitors) through
// RunConfig.Observers and cancel a run through RunConfig.Context.
//
// It also models the best-effort OS scheduling the paper identifies as the
// cause of the endurance experiment's crashes ("the DM node did switch
// control, but the SC node was not scheduled in time"): with scheduler
// jitter enabled, node firings are randomly dropped, reproducing both the
// crashes and their disappearance on an RTOS (zero jitter).
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/obs"
	"repro/internal/plant"
	"repro/internal/pubsub"
	"repro/internal/rta"
	"repro/internal/runtime"
)

// ModuleStats aggregates per-module switching statistics. It lives in
// internal/obs (the metrics are aggregated from the event stream) and is
// re-exported here for the simulation-facing callers.
type ModuleStats = obs.ModuleStats

// Metrics summarises one simulation run. It is produced by the
// obs.MetricsSink aggregating the run's event stream.
type Metrics = obs.Metrics

// physicsStep is the plant integration sub-step.
const physicsStep = 5 * time.Millisecond

// RunConfig configures a closed-loop run.
type RunConfig struct {
	// Stack is the system under test, freshly built: a stack runs once.
	Stack *mission.Stack
	// Initial is the drone's initial state; Battery defaults to 1.
	Initial plant.State
	// Duration is how long to simulate.
	Duration time.Duration
	// Seed drives sensor noise and scheduler jitter.
	Seed int64
	// Context, when non-nil, cancels the run between executor slices: Run
	// returns the partial Result accumulated so far together with the
	// context's error. Nil means run to completion.
	Context context.Context
	// Observers receive the run's full event stream (runtime events and the
	// closed-loop events) in deterministic emission order, after the
	// internal metrics sink.
	Observers []obs.Observer
	// Label names the run in its RunStart event (scenario or mission name).
	Label string
	// JitterProb is the per-firing probability that a node enters a
	// scheduling outage (a burst of missed deadlines, 200-600 ms long) —
	// zero models an RTOS, positive values model the best-effort scheduling
	// of Section V-D, whose crashes the paper traces to "the SC node was
	// not scheduled in time for the system to recover".
	JitterProb float64
	// JitterSCOnly restricts outages to SC and DM nodes, the failure mode
	// the paper observed.
	JitterSCOnly bool
	// KeepFlyingAfterCrash continues the run through collisions, counting
	// episodes instead of stopping at the first (used by the unprotected
	// baselines of Figure 12a).
	KeepFlyingAfterCrash bool
	// StopAfterVisits ends the run once the surveillance app has visited
	// this many targets (0 = run to Duration) — used by the tour-timing
	// experiment.
	StopAfterVisits int
	// Order, when non-nil, orders the nodes firing at each instant
	// (runtime.WithScheduleOrder) — the hook the falsification layer's
	// schedule strategy drives to explore and replay interleavings. Nil
	// keeps the executor's default order.
	Order runtime.ScheduleOrder
}

// Result bundles metrics with the run's switch log — its obs.ModeSwitch
// events, in stream order. The flown trajectory is the run's
// obs.TrajectorySample stream.
type Result struct {
	Metrics  Metrics
	Switches []obs.ModeSwitch
}

// environment integrates the plant between discrete events and publishes the
// state estimate; it also detects ground contact (landing vs crash).
type environment struct {
	drone   *plant.Drone
	ws      *geom.Workspace
	state   plant.State
	run     *runner
	groundZ float64
	// Dense topic IDs, resolved once at run setup: Advance and observe run
	// every physics sub-step (5 ms), so topic access goes through
	// the store's slice-backed ID path instead of name lookups.
	cmdID, stateID, wpID pubsub.TopicID
}

// resolveTopics caches the hot-path topic IDs.
func (e *environment) resolveTopics(topics *pubsub.Store) error {
	for _, t := range []struct {
		name pubsub.TopicName
		id   *pubsub.TopicID
	}{
		{mission.TopicCmd, &e.cmdID},
		{mission.TopicDroneState, &e.stateID},
		{mission.TopicWaypoint, &e.wpID},
	} {
		id, err := topics.ID(t.name)
		if err != nil {
			return err
		}
		*t.id = id
	}
	return nil
}

func (e *environment) Advance(prev, now time.Duration, topics *pubsub.Store) error {
	for t := prev; t < now; {
		dt := physicsStep
		if t+dt > now {
			dt = now - t
		}
		cmd := geom.Vec3{}
		if v, ok := topics.GetID(e.cmdID).(geom.Vec3); ok {
			cmd = v
		}
		e.state = e.drone.Step(e.state, cmd, dt)
		t += dt
		e.run.observe(t, e.state, topics)
		if e.run.crashed && !e.run.cfg.KeepFlyingAfterCrash {
			break
		}
	}
	topics.SetID(e.stateID, e.drone.Observe(e.state))
	return nil
}

// modeTracker logs the run's switch stream and caches the motion-primitive
// module's current mode from it, so per-sub-step trajectory samples carry
// it without querying the executor on the hot path.
type modeTracker struct {
	module   string
	mode     rta.Mode
	switches []obs.ModeSwitch
}

// Interests implements obs.Interested.
func (t *modeTracker) Interests() obs.KindSet { return obs.Kinds(obs.KindModeSwitch) }

// OnEvent implements obs.Observer.
func (t *modeTracker) OnEvent(e obs.Event) {
	sw, ok := e.(obs.ModeSwitch)
	if !ok {
		return
	}
	t.switches = append(t.switches, sw)
	if sw.Module == t.module {
		t.mode = sw.To
	}
}

// runner owns the run's control flow (when to stop, what the environment
// does on ground contact) and the closed-loop emission points. All metric
// bookkeeping lives in the obs.MetricsSink attached to the same stream.
type runner struct {
	cfg  RunConfig
	ws   *geom.Workspace
	sink *obs.MetricsSink
	// Per-kind dispatch lists over sink + tracker + cfg.Observers for the
	// closed-loop emission points.
	byKind [obs.KindCount][]obs.Observer
	// trajTyped is the unboxed dispatch list for trajectory samples — set
	// only when every interested observer implements obs.TrajectoryObserver,
	// sparing one interface allocation per physics sub-step.
	trajTyped []obs.TrajectoryObserver
	// Control-flow flags: crash/touchdown end the run (metrics aside).
	crashed     bool
	landed      bool
	inCollision bool
	tracker     *modeTracker
	rng         *rand.Rand
	// outageUntil tracks per-node scheduling outages (jitter model).
	outageUntil map[string]time.Duration
	exec        *runtime.Executor
	env         *environment
	batLast     time.Duration
}

// emit delivers a closed-loop event to the observers interested in its kind.
func (r *runner) emit(e obs.Event) { obs.Emit(r.byKind[e.Kind()], e) }

// observe is called after every physics sub-step.
func (r *runner) observe(t time.Duration, after plant.State, topics *pubsub.Store) {
	if len(r.trajTyped) > 0 {
		obs.EmitTrajectory(r.trajTyped, obs.TrajectorySample{
			T: t, Pos: after.Pos, Vel: after.Vel, Mode: r.tracker.mode, Landed: after.Landed,
		})
	} else if list := r.byKind[obs.KindTrajectorySample]; len(list) > 0 {
		obs.Emit(list, obs.TrajectorySample{
			T: t, Pos: after.Pos, Vel: after.Vel, Mode: r.tracker.mode, Landed: after.Landed,
		})
	}

	// Ground contact: intended landing vs crash.
	if !after.Landed && after.Pos.Z <= 0 {
		if wp, ok := topics.GetID(r.env.wpID).(mission.Waypoint); ok && wp.Valid && wp.Land && after.Vel.Norm() < 1.0 {
			r.env.state = plant.Land(after)
			r.markLanded(t)
			return
		}
		r.markCrash(t, after.Pos)
		return
	}
	// Intentional touchdown above ground level.
	if !after.Landed {
		if wp, ok := topics.GetID(r.env.wpID).(mission.Waypoint); ok && wp.Valid && wp.Land &&
			after.Pos.Z <= r.env.groundZ && after.Vel.Norm() < 1.2 {
			r.env.state = plant.Land(after)
			r.markLanded(t)
			return
		}
	}
	if plant.Crashed(after, r.ws) {
		r.markCrash(t, after.Pos)
	} else {
		r.inCollision = false
	}
}

func (r *runner) markCrash(t time.Duration, pos geom.Vec3) {
	if !r.inCollision {
		r.inCollision = true
		r.emit(obs.Crash{T: t, Pos: pos})
	}
	r.crashed = true
}

func (r *runner) markLanded(t time.Duration) {
	if !r.landed {
		r.landed = true
		r.emit(obs.Landed{T: t, Pos: r.env.state.Pos, Battery: r.env.state.Battery})
	}
}

// Run executes one closed-loop simulation. A run cancelled through
// RunConfig.Context returns the consistent partial Result accumulated so far
// together with the context's error; any other error returns a nil Result.
// A stack runs once: Run refuses one that already ran (mission.ErrStackUsed).
//
//soter:ctx-ok cancellation rides on RunConfig.Context; a ctx parameter would duplicate it
func Run(cfg RunConfig) (*Result, error) {
	if cfg.Stack == nil {
		return nil, fmt.Errorf("sim: nil stack")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("sim: duration %v must be positive", cfg.Duration)
	}
	if err := cfg.Stack.Claim(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.Initial.Battery == 0 {
		cfg.Initial.Battery = 1
	}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background() //soter:ctx-ok documented shim: nil RunConfig.Context means run to completion
	}
	ws := cfg.Stack.Config.Workspace
	drone, err := plant.NewDrone(cfg.Stack.Config.PlantParams, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	tracker := &modeTracker{mode: rta.ModeSC}
	if pm := cfg.Stack.PrimitiveModule; pm != nil {
		tracker.module = pm.Name()
	} else {
		// No protected motion layer: trajectory samples report ModeAC, like
		// the unprotected baselines of Figure 12a.
		tracker.mode = rta.ModeAC
	}
	sink := obs.NewMetricsSink(ws)
	// Observer order is part of the stream contract: the tracker first (so
	// samples emitted later in the same instant see the fresh mode), then
	// the metrics sink, then the caller's observers.
	observers := append([]obs.Observer{tracker, sink}, cfg.Observers...)

	r := &runner{
		cfg:         cfg,
		ws:          ws,
		sink:        sink,
		byKind:      obs.ByKind(observers),
		tracker:     tracker,
		rng:         rand.New(rand.NewSource(cfg.Seed + 7)),
		outageUntil: make(map[string]time.Duration),
	}
	r.trajTyped = obs.TrajectoryObservers(r.byKind[obs.KindTrajectorySample])
	env := &environment{
		drone:   drone,
		ws:      ws,
		state:   cfg.Initial,
		run:     r,
		groundZ: drone.Params().GroundZ,
	}
	r.env = env

	opts := []runtime.Option{
		runtime.WithEnvironment(env),
		runtime.WithObservers(observers...),
	}
	if cfg.JitterProb > 0 {
		opts = append(opts, runtime.WithDropFilter(r.dropFilter))
	}
	if cfg.Order != nil {
		opts = append(opts, runtime.WithScheduleOrder(cfg.Order))
	}
	exec, err := runtime.New(
		cfg.Stack.System,
		[]pubsub.Topic{{Name: mission.TopicDroneState, Default: cfg.Initial}},
		opts...,
	)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	r.exec = exec
	if err := env.resolveTopics(exec.Topics()); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	modules := make([]string, 0, len(cfg.Stack.System.Modules()))
	for _, m := range cfg.Stack.System.Modules() {
		modules = append(modules, m.Name())
	}
	r.emit(obs.RunStart{T: 0, Seed: cfg.Seed, Label: cfg.Label, Modules: modules})

	// Main loop: run until the deadline, a crash, touchdown or cancellation.
	deadline := cfg.Duration
	var runErr error
	for exec.Now() < deadline {
		if r.crashed && !cfg.KeepFlyingAfterCrash {
			break
		}
		if r.landed {
			break
		}
		if cfg.StopAfterVisits > 0 && visitsSoFar(exec, cfg.Stack) >= cfg.StopAfterVisits {
			break
		}
		stepUntil := exec.Now() + 100*time.Millisecond
		if stepUntil > deadline {
			stepUntil = deadline
		}
		if err := exec.Run(ctx, stepUntil); err != nil {
			if cancelled(ctx, err) {
				runErr = err
				break
			}
			return nil, err
		}
		r.sampleBattery()
		if stepUntil == deadline {
			// Every firing up to the deadline has run. The executor's clock
			// stops at the last of them, short of a deadline that falls
			// between firing instants, so Now() alone never reaches it.
			break
		}
	}

	end := exec.Now()
	visits := 0
	if cfg.Stack.AppNode != nil {
		if st, ok := exec.LocalState(cfg.Stack.AppNode.Name()); ok {
			if v, ok := mission.VisitsOf(st); ok {
				visits = v
			}
		}
	}
	endEv := obs.RunEnd{T: end, TargetsVisited: visits, Battery: env.state.Battery}
	if runErr != nil {
		endEv.Err = runErr.Error()
	}
	r.emit(endEv)

	return &Result{Metrics: sink.Metrics(), Switches: tracker.switches}, runErr
}

// cancelled reports whether err is the context's cancellation surfacing.
func cancelled(ctx context.Context, err error) bool {
	return ctx.Err() != nil && errors.Is(err, ctx.Err())
}

// visitsSoFar reads the surveillance app's visit counter mid-run.
func visitsSoFar(exec *runtime.Executor, st *mission.Stack) int {
	if st.AppNode == nil {
		return 0
	}
	raw, ok := exec.LocalState(st.AppNode.Name())
	if !ok {
		return 0
	}
	v, _ := mission.VisitsOf(raw)
	return v
}

// dropFilter models best-effort scheduling as burst outages: with
// probability JitterProb a firing starts an outage of 200-600 ms during
// which every firing of that node is dropped. A burst hitting the SC right
// after a disengagement reproduces the paper's crash mode. Dropped firings
// surface as obs.NodeFired{Dropped: true} events from the executor.
func (r *runner) dropFilter(ct time.Duration, name string) bool {
	if r.cfg.JitterSCOnly {
		if _, isDM := r.cfg.Stack.System.IsDM(name); !isDM {
			if _, isAC, ok := r.cfg.Stack.System.ControllerOf(name); !ok || isAC {
				return false
			}
		}
	}
	if until, out := r.outageUntil[name]; out && ct < until {
		return true
	}
	if r.rng.Float64() < r.cfg.JitterProb {
		dur := 200*time.Millisecond + time.Duration(r.rng.Int63n(int64(400*time.Millisecond)))
		r.outageUntil[name] = ct + dur
		return true
	}
	return false
}

// sampleBattery emits obs.BatterySample events at most every 50 ms — free
// when nobody subscribed to them (the metrics sink takes the final charge
// from RunEnd instead).
func (r *runner) sampleBattery() {
	list := r.byKind[obs.KindBatterySample]
	if len(list) == 0 {
		return
	}
	now := r.exec.Now()
	if now-r.batLast < 50*time.Millisecond && r.batLast > 0 {
		return
	}
	r.batLast = now
	obs.Emit(list, obs.BatterySample{T: now, Charge: r.env.state.Battery})
}

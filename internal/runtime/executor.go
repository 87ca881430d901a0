// Package runtime executes an RTA system according to the operational
// semantics of Figure 11 in the paper. A configuration is the tuple
// (L, OE, ct, FN, Topics); the executor repeatedly applies:
//
//   - DISCRETE-TIME-PROGRESS-STEP: when FN = ∅, advance ct to the earliest
//     entry of the nodes' time-tables and set FN to the nodes firing then;
//   - ENVIRONMENT-INPUT: environment hooks may update input topics at any
//     time; the executor invokes them at every time progress;
//   - DM-STEP: a firing decision module reads the monitored state, updates
//     its mode, and the output-enable map OE is updated so exactly one of
//     {AC, SC} has its outputs enabled;
//   - AC-OR-SC-STEP: a firing controller (or plain) node reads its input
//     topics, steps, and publishes its outputs only if enabled in OE. A
//     firing whose outputs OE disables, of a node that declares an idle step
//     (node.WithIdleStep), runs that step instead: the local state moves
//     exactly as the full step would move it, without reading the inputs
//     or computing the outputs OE would discard. Everything else about the
//     firing (the drop-filter decision, its NodeFired event) is unchanged,
//     so the event stream is the same with or without the idle step.
//
// The executor is deterministic: nodes firing at the same instant run in a
// fixed order (DMs first, then the remaining nodes alphabetically) unless a
// custom ScheduleOrder is installed — the falsifier's schedule strategy
// sets one through sim.RunConfig.Order to enumerate and replay interleavings
// under bounded asynchrony.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pubsub"
	"repro/internal/rta"
)

// Environment is the ENVIRONMENT-INPUT hook: it is invoked at every time
// progress with the previous and new current time and may update input
// topics (for example, integrating plant dynamics over [prev, now] and
// publishing fresh state estimates).
type Environment interface {
	Advance(prev, now time.Duration, topics *pubsub.Store) error
}

// EnvironmentFunc adapts a function to the Environment interface.
type EnvironmentFunc func(prev, now time.Duration, topics *pubsub.Store) error

// Advance implements Environment.
func (f EnvironmentFunc) Advance(prev, now time.Duration, topics *pubsub.Store) error {
	return f(prev, now, topics)
}

// ScheduleOrder orders the set of nodes firing at the same instant. It
// receives the sorted firing set and returns the execution order (a
// permutation; the executor validates it).
type ScheduleOrder func(ct time.Duration, firing []string) []string

// config holds the executor's mutable configuration (L, OE, ct, FN,
// Topics). L and OE live in the node records — each record carries its
// node's local state and output enable — and FN is the rest of the current
// instant's firing sequence.
type config struct {
	ct     time.Duration
	fn     []*nodeRec
	topics *pubsub.Store
}

// nodeRec is a node resolved once at construction into everything a firing
// needs, so dispatch does no per-firing name lookups.
type nodeRec struct {
	name  string
	node  *node.Node
	sched node.Schedule
	// mod is the module a DM decides for, nil for every other node; ac and
	// sc are that module's controller records, whose output enables the DM
	// flips.
	mod    *rta.Module
	ac, sc *nodeRec
	// inIDs are the store's dense topic IDs for the node's subscriptions;
	// in is the reusable input valuation they are read into. Refilling the
	// same map with the same keys every firing performs no allocation.
	inIDs []pubsub.TopicID
	in    pubsub.Valuation
	// outs are the node's declared outputs, sorted; outIDs their topic IDs.
	outs   []pubsub.TopicName
	outIDs []pubsub.TopicID
	// local is the node's entry of L; oe its entry of OE (always true for
	// plain nodes and DMs).
	local node.State
	oe    bool
	// idle is the node's idle step, run instead of the step while oe is
	// false; nil when the node declares none.
	idle node.IdleFunc
}

// Option configures an Executor.
type Option func(*Executor)

// WithEnvironment installs the environment hook.
func WithEnvironment(env Environment) Option {
	return func(e *Executor) { e.env = env }
}

// WithScheduleOrder installs a custom same-instant execution order.
func WithScheduleOrder(o ScheduleOrder) Option {
	return func(e *Executor) { e.order = o }
}

// WithObservers attaches observers to the executor's event stream: the
// executor emits obs.NodeFired at every firing (including drop-filtered
// ones, and output-disabled ones that ran the node's idle step in place of
// its step), obs.ModeSwitch at every DM mode change, obs.InvariantViolation
// at every DM step after which φsafe fails, and obs.TimeProgress at every
// DISCRETE-TIME-PROGRESS-STEP. Events are delivered synchronously on the run
// goroutine, in a deterministic order for a given system and schedule.
func WithObservers(observers ...obs.Observer) Option {
	return func(e *Executor) { e.observers = append(e.observers, observers...) }
}

// WithDropFilter installs a firing filter: before a node fires, drop(ct,
// name) is consulted and, when true, the firing is skipped (the node misses
// its deadline). This models best-effort OS scheduling; Section V-D traces
// the 34 crashes of the endurance experiment to exactly such missed SC
// deadlines.
func WithDropFilter(drop func(ct time.Duration, nodeName string) bool) Option {
	return func(e *Executor) { e.drop = drop }
}

// Executor runs an RTA system.
type Executor struct {
	sys *rta.System
	cfg config

	// recs are the node records in sorted name order — the system's
	// calendar: the next instant and the name-sorted firing set are read
	// off their schedules. byName indexes them; dms and rest are the records
	// of the decision modules and of every other node, each in sorted name
	// order — the default same-instant order walks them without lookups.
	recs   []nodeRec
	byName map[string]*nodeRec
	dms    []*nodeRec
	rest   []*nodeRec

	env   Environment
	order ScheduleOrder
	drop  func(time.Duration, string) bool

	// observers is the attached observer set; byKind is the per-kind
	// dispatch table derived from it at construction. Emission sites check
	// the relevant list for emptiness before constructing an event, so
	// unobserved kinds cost nothing on the per-firing hot path.
	observers []obs.Observer
	byKind    [obs.KindCount][]obs.Observer
	// firedTyped is the NodeFired list in its unboxed form, nil when some
	// member lacks obs.NodeFiredObserver (see obs.NodeFiredObservers).
	firedTyped []obs.NodeFiredObserver

	// Reusable firing-sequence buffer for the default schedule order. FN is
	// fully consumed before the next time progress (Step only advances time
	// when FN is empty), so the backing array can be recycled per instant.
	fnBuf []*nodeRec
}

// New creates an executor for the system with the given extra environment
// topics (topics read by nodes but produced by no node must be declared so
// the store knows them; defaults supply their initial values).
func New(sys *rta.System, envTopics []pubsub.Topic, opts ...Option) (*Executor, error) {
	if sys == nil {
		return nil, errors.New("nil system")
	}
	declared := make(map[pubsub.TopicName]bool, len(envTopics))
	topics := make([]pubsub.Topic, 0, len(envTopics))
	for _, t := range envTopics {
		if declared[t.Name] {
			return nil, fmt.Errorf("duplicate environment topic %q", t.Name)
		}
		declared[t.Name] = true
		topics = append(topics, t)
	}
	for _, t := range sys.Topics() {
		if !declared[t] {
			declared[t] = true
			topics = append(topics, pubsub.Topic{Name: t})
		}
	}
	store, err := pubsub.NewStore(topics...)
	if err != nil {
		return nil, fmt.Errorf("topic store: %w", err)
	}

	// Initial configuration: L0 = init states (mode = SC for DMs); OE0
	// enables every SC and disables every AC; ct0 = 0; FN0 = ∅. The records
	// follow the system's sorted node names.
	names := sys.NodeNames()
	e := &Executor{
		sys:    sys,
		cfg:    config{topics: store},
		recs:   make([]nodeRec, len(names)),
		byName: make(map[string]*nodeRec, len(names)),
	}
	recs := e.recs
	for i, name := range names {
		n, _ := sys.Node(name)
		ids, err := store.IDs(n.Inputs())
		if err != nil {
			return nil, fmt.Errorf("node %q inputs: %w", name, err)
		}
		outs := n.Outputs()
		outIDs, err := store.IDs(outs)
		if err != nil {
			return nil, fmt.Errorf("node %q outputs: %w", name, err)
		}
		recs[i] = nodeRec{
			name:   name,
			node:   n,
			sched:  n.Schedule(),
			inIDs:  ids,
			in:     make(pubsub.Valuation, len(ids)),
			outs:   outs,
			outIDs: outIDs,
			local:  n.InitState(),
			oe:     true,
			idle:   n.IdleStep(),
		}
		e.byName[name] = &recs[i]
	}
	for i := range recs {
		r := &recs[i]
		if m, isDM := sys.IsDM(r.name); isDM {
			r.mod, r.ac, r.sc = m, e.byName[m.AC().Name()], e.byName[m.SC().Name()]
			r.ac.oe, r.sc.oe = false, true
			e.dms = append(e.dms, r)
		} else {
			e.rest = append(e.rest, r)
		}
	}
	for _, opt := range opts {
		opt(e)
	}
	e.byKind = obs.ByKind(e.observers)
	e.firedTyped = obs.NodeFiredObservers(e.byKind[obs.KindNodeFired])
	if testHookNew != nil {
		testHookNew(e)
	}
	return e, nil
}

// testHookNew, when set, sees every executor New builds before its first
// step. Tests set it (export_test.go) to reach the executor behind a
// closed-loop run: to read every node's final local state, or to replace a
// record's idle step.
var testHookNew func(*Executor)

// Now returns the current time ct.
func (e *Executor) Now() time.Duration { return e.cfg.ct }

// Topics returns the global topic store.
func (e *Executor) Topics() *pubsub.Store { return e.cfg.topics }

// Mode returns the current mode of the named module.
func (e *Executor) Mode(moduleName string) (rta.Mode, error) {
	for _, m := range e.sys.Modules() {
		if m.Name() == moduleName {
			local := e.byName[m.DM().Name()].local
			dm, ok := local.(rta.DMState)
			if !ok {
				return 0, fmt.Errorf("module %q: DM state has type %T", moduleName, local)
			}
			return dm.Mode, nil
		}
	}
	return 0, fmt.Errorf("unknown module %q", moduleName)
}

// LocalState returns the local state of a node. The simulator reads the
// surveillance app's visit counter through it; tests inspect any node.
func (e *Executor) LocalState(nodeName string) (node.State, bool) {
	r, ok := e.byName[nodeName]
	if !ok {
		return nil, false
	}
	return r.local, true
}

// Step applies one transition of the operational semantics: a time progress
// when FN is empty, otherwise the firing of the next node in FN. It returns
// false when the system has no nodes (no further transitions exist).
func (e *Executor) Step() (bool, error) {
	if len(e.cfg.fn) == 0 {
		return e.timeProgress()
	}
	r := e.cfg.fn[0]
	e.cfg.fn = e.cfg.fn[1:]
	if e.drop != nil && e.drop(e.cfg.ct, r.name) {
		// Firing skipped: missed deadline.
		if len(e.byKind[obs.KindNodeFired]) > 0 {
			e.emitFired(obs.NodeFired{T: e.cfg.ct, Node: r.name, DM: r.mod != nil, Dropped: true})
		}
		return true, nil
	}
	if err := e.fire(r); err != nil {
		return false, err
	}
	return true, nil
}

// emitFired delivers a NodeFired event, unboxed when every observer of the
// kind takes the typed path. Callers check the kind's list for emptiness
// first, so unobserved firings construct nothing.
func (e *Executor) emitFired(ev obs.NodeFired) {
	if e.firedTyped != nil {
		obs.EmitNodeFired(e.firedTyped, ev)
		return
	}
	obs.Emit(e.byKind[obs.KindNodeFired], ev)
}

// Run advances the system until ct would exceed deadline or the context is
// cancelled (checked at every time progress, so cancellation lands between
// instants, never splitting the firings of one instant). All firings at
// instants ≤ deadline are executed; on cancellation the context's error is
// returned and the executor is left in a consistent configuration from which
// Run may be called again.
func (e *Executor) Run(ctx context.Context, deadline time.Duration) error {
	done := ctx.Done()
	for {
		if len(e.cfg.fn) == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			next, ok := e.nextInstant()
			if !ok || next > deadline {
				return nil
			}
		}
		if _, err := e.Step(); err != nil {
			return err
		}
	}
}

// RunUntil advances the system until ct would exceed deadline. All firings
// at instants ≤ deadline are executed. It is Run without cancellation.
//
//soter:ctx-ok documented shim: RunUntil(d) is defined as Run(Background, d)
func (e *Executor) RunUntil(deadline time.Duration) error {
	return e.Run(context.Background(), deadline) //soter:ctx-ok documented shim: the uncancellable legacy entry point
}

// timeProgress implements DISCRETE-TIME-PROGRESS-STEP plus the environment
// hook.
func (e *Executor) timeProgress() (bool, error) {
	next, ok := e.nextInstant()
	if !ok {
		return false, nil
	}
	prev := e.cfg.ct
	e.cfg.ct = next
	if e.env != nil {
		if err := e.env.Advance(prev, next, e.cfg.topics); err != nil {
			return false, fmt.Errorf("environment at t=%v: %w", next, err)
		}
	}
	// Emitted after the environment hook, so an environment that itself
	// emits events (the simulator's per-sub-step trajectory samples) keeps
	// the stream's timestamps monotone.
	if list := e.byKind[obs.KindTimeProgress]; len(list) > 0 {
		obs.Emit(list, obs.TimeProgress{T: next, Prev: prev})
	}
	e.cfg.fn = e.orderFiring(next)
	return true, nil
}

// nextInstant returns the earliest time strictly after ct at which any
// node fires (rules dt2, dt3); ok is false when the system has no nodes. It
// does not materialize the firing set, so Run's deadline check is
// allocation-free.
func (e *Executor) nextInstant() (next time.Duration, ok bool) {
	for i := range e.recs {
		t := e.recs[i].sched.NextAfter(e.cfg.ct)
		if i == 0 || t < next {
			next = t
		}
	}
	return next, len(e.recs) > 0
}

// orderFiring computes the instant's firing sequence: decision modules
// first (so OE reflects the freshest mode before controllers publish), then
// the rest, both alphabetically — unless a custom order is installed. The
// default path builds into per-executor scratch; the custom path hands the
// scheduler freshly allocated slices, since the hook may retain them.
func (e *Executor) orderFiring(ct time.Duration) []*nodeRec {
	if e.order != nil {
		// FN' = {n | (n, ct) ∈ CS} of rule dt3, in sorted name order.
		var firing []string
		for i := range e.recs {
			if e.recs[i].sched.FiresAt(ct) {
				firing = append(firing, e.recs[i].name)
			}
		}
		ordered := e.order(ct, firing)
		if !validPermutation(firing, ordered) {
			// An invalid permutation from a custom scheduler falls back to
			// the default order rather than corrupting the run.
			return e.appendDefaultOrder(ct, nil)
		}
		fn := make([]*nodeRec, len(ordered))
		for i, name := range ordered {
			fn[i] = e.byName[name]
		}
		return fn
	}
	e.fnBuf = e.appendDefaultOrder(ct, e.fnBuf[:0])
	return e.fnBuf
}

// appendDefaultOrder appends the records firing at ct to dst, DMs first,
// each class in sorted name order — the instant's firing set, partitioned.
func (e *Executor) appendDefaultOrder(ct time.Duration, dst []*nodeRec) []*nodeRec {
	for _, class := range [2][]*nodeRec{e.dms, e.rest} {
		for _, r := range class {
			if r.sched.FiresAt(ct) {
				dst = append(dst, r)
			}
		}
	}
	return dst
}

// fire executes DM-STEP or AC-OR-SC-STEP for the node.
func (e *Executor) fire(r *nodeRec) error {
	if len(e.byKind[obs.KindNodeFired]) > 0 {
		e.emitFired(obs.NodeFired{T: e.cfg.ct, Node: r.name, DM: r.mod != nil})
	}
	if !r.oe && r.idle != nil {
		// OE discards this firing's outputs, and the idle step gives the
		// state the step would leave: neither inputs nor outputs are needed.
		r.local = r.idle(r.local)
		return nil
	}
	// The input valuation is a per-node reusable buffer filled through the
	// store's dense topic IDs; it is only valid for the duration of the
	// firing (nodes must not retain it, per the StepFunc contract).
	e.cfg.topics.ReadInto(r.inIDs, r.in)

	if r.mod != nil {
		return e.fireDM(r)
	}

	// AC-OR-SC-STEP: the node steps; outputs are written only when enabled.
	// Step has already rejected any undeclared output, so no value of a
	// failed firing reaches the store. The values are copied into the
	// store by ID, so the node may reuse its output valuation at its next
	// step.
	next, out, err := r.node.Step(r.local, r.in)
	if err != nil {
		return err
	}
	r.local = next
	if r.oe && len(out) > 0 {
		for i, topic := range r.outs {
			if v, ok := out[topic]; ok {
				e.cfg.topics.SetID(r.outIDs[i], v)
			}
		}
	}
	return nil
}

// fireDM executes DM-STEP: update the DM state from the switching policy and
// flip the output-enable entries of the controlled AC and SC (dm1, dm2).
func (e *Executor) fireDM(r *nodeRec) error {
	prev, ok := r.local.(rta.DMState)
	if !ok {
		return fmt.Errorf("DM %q: local state has type %T, want rta.DMState", r.name, r.local)
	}
	next, _, err := r.node.Step(prev, r.in)
	if err != nil {
		return err
	}
	dm, ok := next.(rta.DMState)
	if !ok {
		return fmt.Errorf("DM %q: step returned state of type %T, want rta.DMState", r.name, next)
	}
	r.local = dm
	m, mode := r.mod, dm.Mode
	enAC := mode == rta.ModeAC
	r.ac.oe = enAC
	r.sc.oe = !enAC

	if mode != prev.Mode {
		e.emitSwitch(obs.ModeSwitch{T: e.cfg.ct, Module: m.Name(), From: prev.Mode, To: mode, Reason: dm.Reason})
		// Coordinated switching (Section VII): a disengagement demotes the
		// coordinated partner modules to SC immediately.
		if mode == rta.ModeSC {
			e.forceCoordinated(m)
		}
	}
	// The φInv monitor of Theorem 3.1, run at every DM sampling instant:
	//
	//	φInv(mode, s) = (mode = SC ∧ s ∈ φsafe) ∨ (mode = AC ∧ Reach(s, *, Δ) ⊆ φsafe)
	//
	// The DM's clamp leaves the module in AC only where ttf2Δ is false, and
	// ¬ttf2Δ(s) gives Reach(s, *, Δ) ⊆ Reach(s, *, 2Δ) ⊆ φsafe. So in either
	// mode what remains to check is s ∈ φsafe. A violation is reported, never
	// raised: the run goes on, and the metrics sink counts it.
	if !m.SafeHolds(r.in) {
		if list := e.byKind[obs.KindInvariantViolation]; len(list) > 0 {
			obs.Emit(list, obs.InvariantViolation{T: e.cfg.ct, Module: m.Name(), Mode: mode})
		}
	}
	return nil
}

// emitSwitch delivers a mode change to the ModeSwitch observers — the run's
// only record of its switches.
func (e *Executor) emitSwitch(sw obs.ModeSwitch) {
	if list := e.byKind[obs.KindModeSwitch]; len(list) > 0 {
		obs.Emit(list, sw)
	}
}

// forceCoordinated demotes every module coordinated with the trigger to SC
// mode, updating their DM state and output enables and emitting the forced
// switches. The partner's policy state is preserved — its next own decision
// sees Mode = SC and (by the policy contract) treats the demotion like any
// other entry into SC mode.
func (e *Executor) forceCoordinated(trigger *rta.Module) {
	for _, partner := range e.sys.CoordinatedWith(trigger.Name()) {
		dm := e.byName[partner.DM().Name()]
		prev, ok := dm.local.(rta.DMState)
		if !ok || prev.Mode == rta.ModeSC {
			continue
		}
		dm.local = rta.DMState{Mode: rta.ModeSC, Reason: rta.ReasonCoordinated, Policy: prev.Policy}
		dm.ac.oe, dm.sc.oe = false, true
		e.emitSwitch(obs.ModeSwitch{
			T:           e.cfg.ct,
			Module:      partner.Name(),
			From:        prev.Mode,
			To:          rta.ModeSC,
			Reason:      rta.ReasonCoordinated,
			Coordinated: true,
		})
	}
}

func validPermutation(orig, perm []string) bool {
	if len(orig) != len(perm) {
		return false
	}
	count := make(map[string]int, len(orig))
	for _, s := range orig {
		count[s]++
	}
	for _, s := range perm {
		count[s]--
		if count[s] < 0 {
			return false
		}
	}
	return true
}

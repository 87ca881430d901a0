// Package node implements the SOTER node abstraction (Section III-A): a node
// is a tuple (N, I, O, T, C) — a named periodic input-output state-transition
// system that, at every time instant in its calendar, reads the values of its
// input topics, updates its local state, and publishes values on its output
// topics.
package node

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/pubsub"
)

// State is the local state l ∈ L of a node. States must be treated as values:
// Step must not mutate its argument but return a fresh (or identical) state,
// so a configuration read off the executor stays valid after later firings.
type State any

// StepFunc is the transition relation T of a node restricted to a
// deterministic function: given the local state and the valuation of the
// subscribed topics, it returns the next local state and the valuation to
// publish on (a subset of) the output topics. Nondeterminism, where needed,
// is injected through the environment or through explicit RNG state carried
// in the local state.
//
// The input valuation is only valid for the duration of the call: the
// executor reuses the backing buffer across firings, so implementations must
// copy any values they need beyond the step rather than retain the map.
//
// The returned output valuation is owned by the node: the executor consumes
// it (copying its values into the topic store) before the node's next step,
// so a node may return the same map every firing and refill it in place.
// Callers that step a node by hand must likewise finish with one output
// before stepping the node again. A node that reuses its output therefore
// belongs to one executor at a time.
type StepFunc func(st State, in pubsub.Valuation) (State, pubsub.Valuation, error)

// InitFunc produces the initial local state l0 of a node.
type InitFunc func() State

// IdleFunc is the local-state half of a node's transition for a firing whose
// outputs are disabled: it returns the state the step would have returned,
// without the inputs. See WithIdleStep.
type IdleFunc func(State) State

// Schedule is the time-table C(N) of one node: the node fires at phase,
// phase+period, phase+2*period, ... A system's calendar is the union of its
// nodes' time-tables; the executor advances the current time ct to its
// earliest pending entry (rule DISCRETE-TIME-PROGRESS-STEP in Figure 11).
type Schedule struct {
	Period time.Duration
	Phase  time.Duration
}

// Validate checks the schedule is well formed.
func (s Schedule) Validate() error {
	if s.Period <= 0 {
		return fmt.Errorf("period %v must be positive", s.Period)
	}
	if s.Phase < 0 {
		return fmt.Errorf("phase %v must be non-negative", s.Phase)
	}
	return nil
}

// FiresAt reports whether the schedule has an entry exactly at time t.
func (s Schedule) FiresAt(t time.Duration) bool {
	if t < s.Phase {
		return false
	}
	return (t-s.Phase)%s.Period == 0
}

// NextAfter returns the earliest firing time strictly greater than t.
func (s Schedule) NextAfter(t time.Duration) time.Duration {
	if t < s.Phase {
		return s.Phase
	}
	k := (t - s.Phase) / s.Period
	return s.Phase + (k+1)*s.Period
}

// Node is an immutable node declaration. Construct one with New; the zero
// value is not valid.
type Node struct {
	name    string
	inputs  []pubsub.TopicName
	outputs []pubsub.TopicName
	sched   Schedule
	init    InitFunc
	step    StepFunc
	idle    IdleFunc
}

// Option configures optional node attributes.
type Option func(*options)

type options struct {
	phase time.Duration
	init  InitFunc
	idle  IdleFunc
}

// WithPhase offsets the node's first firing from time zero.
func WithPhase(p time.Duration) Option {
	return func(o *options) { o.phase = p }
}

// WithInit sets the initial-local-state constructor. Nodes without one start
// with a nil local state.
func WithInit(f InitFunc) Option {
	return func(o *options) { o.init = f }
}

// WithIdleStep declares the node's idle step: for every local state, f
// returns exactly the state the step returns, whatever the inputs. An
// executor may then run f instead of the step on a firing whose outputs OE
// disables (Fig. 11 discards them anyway), skipping the input read and the
// output computation. Only a node whose next state never depends on its
// inputs can declare one: a state that accumulates history (a plan cache,
// an RNG advanced per input-dependent draw, a site pinned from the first
// input) cannot.
func WithIdleStep(f IdleFunc) Option {
	return func(o *options) { o.idle = f }
}

// New constructs a node named name with period period, subscribing to inputs,
// publishing on outputs, and transition function step.
//
// Per the paper's definition, output topics must be disjoint from input
// topics (I ∩ O = ∅); duplicates within either set are also rejected.
func New(name string, period time.Duration, inputs, outputs []pubsub.TopicName, step StepFunc, opts ...Option) (*Node, error) {
	if name == "" {
		return nil, fmt.Errorf("node with empty name")
	}
	if step == nil {
		return nil, fmt.Errorf("node %q: nil step function", name)
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	sched := Schedule{Period: period, Phase: o.phase}
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("node %q: %w", name, err)
	}
	in, err := normalizeTopics(inputs)
	if err != nil {
		return nil, fmt.Errorf("node %q inputs: %w", name, err)
	}
	out, err := normalizeTopics(outputs)
	if err != nil {
		return nil, fmt.Errorf("node %q outputs: %w", name, err)
	}
	seen := make(map[pubsub.TopicName]bool, len(in))
	for _, t := range in {
		seen[t] = true
	}
	for _, t := range out {
		if seen[t] {
			return nil, fmt.Errorf("node %q: topic %q is both input and output", name, t)
		}
	}
	init := o.init
	if init == nil {
		init = func() State { return nil }
	}
	return &Node{
		name:    name,
		inputs:  in,
		outputs: out,
		sched:   sched,
		init:    init,
		step:    step,
		idle:    o.idle,
	}, nil
}

// Name returns the unique node name N.
func (n *Node) Name() string { return n.name }

// Inputs returns a copy of the subscribed topic names I(N), sorted.
func (n *Node) Inputs() []pubsub.TopicName { return copyTopics(n.inputs) }

// Outputs returns a copy of the published topic names O(N), sorted.
func (n *Node) Outputs() []pubsub.TopicName { return copyTopics(n.outputs) }

// Period returns the node's period δ(N).
func (n *Node) Period() time.Duration { return n.sched.Period }

// Schedule returns the node's time-table C(N).
func (n *Node) Schedule() Schedule { return n.sched }

// InitState returns a fresh initial local state l0.
func (n *Node) InitState() State { return n.init() }

// IdleStep returns the node's idle step (WithIdleStep), nil when it
// declares none.
func (n *Node) IdleStep() IdleFunc { return n.idle }

// Step applies the transition relation once. It validates that the produced
// output valuation only mentions declared output topics. The check counts
// the declared outputs present in the valuation, one lookup each, and walks
// the valuation only on failure, to name the undeclared topic.
func (n *Node) Step(st State, in pubsub.Valuation) (State, pubsub.Valuation, error) {
	next, out, err := n.step(st, in)
	if err != nil {
		return nil, nil, fmt.Errorf("node %q step: %w", n.name, err)
	}
	declared := 0
	for _, topic := range n.outputs {
		if _, ok := out[topic]; ok {
			declared++
		}
	}
	if declared != len(out) {
		for topic := range out {
			if !n.publishes(topic) {
				return nil, nil, fmt.Errorf("node %q published on undeclared output topic %q", n.name, topic)
			}
		}
	}
	return next, out, nil
}

func (n *Node) publishes(topic pubsub.TopicName) bool {
	_, found := slices.BinarySearch(n.outputs, topic)
	return found
}

// SameOutputs reports whether two nodes publish exactly the same set of
// topics — property (P1b) of a well-formed RTA module.
func SameOutputs(a, b *Node) bool {
	if len(a.outputs) != len(b.outputs) {
		return false
	}
	for i := range a.outputs {
		if a.outputs[i] != b.outputs[i] {
			return false
		}
	}
	return true
}

func normalizeTopics(ts []pubsub.TopicName) ([]pubsub.TopicName, error) {
	out := make([]pubsub.TopicName, len(ts))
	copy(out, ts)
	slices.Sort(out)
	for i := range out {
		if out[i] == "" {
			return nil, fmt.Errorf("empty topic name")
		}
		if i > 0 && out[i] == out[i-1] {
			return nil, fmt.Errorf("duplicate topic %q", out[i])
		}
	}
	return out, nil
}

func copyTopics(ts []pubsub.TopicName) []pubsub.TopicName {
	out := make([]pubsub.TopicName, len(ts))
	copy(out, ts)
	return out
}

// Package soter is a Go reproduction of SOTER, the runtime assurance (RTA)
// framework for programming safe robotics systems (Desai et al., DSN 2019).
//
// A SOTER program is a collection of periodic nodes communicating by
// publishing on and subscribing to topics (Section II-B of the paper). Any
// uncertified component — a third-party motion primitive, a learned
// controller, an off-the-shelf planner — is protected by declaring an RTA
// module: an advanced controller (AC), a certified safe controller (SC), a
// period Δ and the safety predicates. The framework compiles the declaration
// into a decision module (DM) that samples the monitored state every Δ and
// switches control AC→SC when the worst-case 2Δ-reachable set can leave the
// safe region (keeping the system provably inside φsafe, Theorem 3.1), and
// SC→AC when the state is back in the stronger region φsafer (restoring
// performance — the paper's extension over classic Simplex). Output-disjoint
// modules compose, and the composite system satisfies the conjunction of the
// module invariants (Theorem 4.1).
//
// Construction mirrors the paper's surface syntax (Figures 4 and 7).
// Execution is context-aware and observable: Run honours cancellation, and
// any number of Observers can consume the run's typed event stream — mode
// switches, node firings, invariant violations, time progress — through
// WithObservers (one stream, many composable consumers). Every executor
// monitors φInv after each DM step and reports a violation as an event; the
// run goes on:
//
//	mp, _ := soter.NewNode("MotionPrimitive", 10*time.Millisecond,
//	    []soter.TopicName{"localPosition", "targetWaypoint"},
//	    []soter.TopicName{"controlAction"}, acStep)
//	mpSC, _ := soter.NewNode("MotionPrimitiveSC", 10*time.Millisecond,
//	    []soter.TopicName{"localPosition", "targetWaypoint"},
//	    []soter.TopicName{"controlAction"}, scStep)
//	mod, _ := soter.NewRTAModule(soter.ModuleDecl{
//	    Name: "SafeMotionPrimitive",
//	    AC:   mp, SC: mpSC,
//	    Delta:     100 * time.Millisecond,
//	    TTF2Delta: ttf2dMPr,   // Reach(st, *, 2Δ) ⊄ φsafe
//	    InSafer:   phiSaferMPr, // st ∈ φsafer
//	    Safe:      phiSafeMPr,
//	})
//	sys, _ := soter.NewSystem([]*soter.Module{mod}, nil)
//
//	exec, _ := soter.NewExecutor(sys, nil,
//	    soter.WithObservers(soter.ObserverFunc(func(e soter.Event) {
//	        switch e := e.(type) {
//	        case soter.ModeSwitchEvent:
//	            log.Printf("t=%v %s: %v -> %v", e.T, e.Module, e.From, e.To)
//	        case soter.InvariantViolationEvent: // φsafe failed at a DM step
//	            log.Printf("t=%v %s: φInv violated", e.T, e.Module)
//	        }
//	    })))
//
//	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
//	defer cancel()
//	_ = exec.Run(ctx, time.Minute) // cancellation-aware; RunUntil(d) = Run(context.Background(), d)
//
// A module runs the Figure 9 switching rules unless ModuleDecl.Policy
// supplies another Policy; whatever a policy proposes, the module clamps AC
// to SC whenever ttf2Δ fails. Scenarios, jobs and CLIs name policies by spec
// string from a fixed table of built-ins (ParsePolicy), so a name means the
// same behaviour in every process; an application's own policy needs no
// name.
//
// The internal packages supply everything the paper's evaluation needs: the
// drone plant, reachability analyses standing in for FaSTrack / the
// Level-Set Toolbox, the RRT* and A* planners, the battery monitor, the
// closed-loop simulator and the bounded-asynchrony systematic-testing
// engine. Above them sits the serving layer: named scenarios, the parallel
// fleet engine, and the soter-serve HTTP service with its deterministic
// result cache, whose public surface is HTTP and the CLIs (soter-serve,
// soter-falsify, soter-bench) rather than this package. See
// docs/ARCHITECTURE.md for the layer map and README.md for quickstarts.
package soter

import (
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pubsub"
	"repro/internal/rta"
	"repro/internal/runtime"
)

// Core vocabulary, re-exported from the internal implementation packages so
// applications program against a single import.
type (
	// TopicName names a publish-subscribe topic.
	TopicName = pubsub.TopicName
	// Value is a topic value.
	Value = pubsub.Value
	// Valuation maps topic names to values.
	Valuation = pubsub.Valuation
	// Topic declares a topic with a default value.
	Topic = pubsub.Topic
	// Store is the global topic store an Environment reads and writes.
	Store = pubsub.Store
	// State is a node's local state.
	State = node.State
	// StepFunc is a node transition function.
	StepFunc = node.StepFunc
	// Node is a periodic input-output state-transition system.
	Node = node.Node
	// NodeOption configures node construction.
	NodeOption = node.Option
	// Mode is a decision module's mode (AC or SC).
	Mode = rta.Mode
	// ModuleDecl declares an RTA module (Figure 7).
	ModuleDecl = rta.Decl
	// Module is a compiled RTA module with its generated decision module.
	Module = rta.Module
	// Policy is a pluggable DM switching policy ("policy proposes, module
	// disposes": unsafe AC proposals are clamped to SC by the framework).
	Policy = rta.Policy
	// PolicyState is a policy's private per-module state.
	PolicyState = rta.PolicyState
	// DecisionContext is what a policy observes at a DM sampling instant.
	DecisionContext = rta.DecisionContext
	// SwitchReason explains a DM decision (ttf-trip, recovery, clamped, ...).
	SwitchReason = rta.SwitchReason
	// System is a composition of RTA modules and plain nodes.
	System = rta.System
	// Executor runs a system under the Figure 11 operational semantics.
	Executor = runtime.Executor
	// ExecutorOption configures an executor.
	ExecutorOption = runtime.Option
	// Environment is the environment-input hook.
	Environment = runtime.Environment
	// EnvironmentFunc adapts a function to Environment.
	EnvironmentFunc = runtime.EnvironmentFunc
)

// Observability vocabulary: one typed event stream, many composable
// consumers (see the internal/obs package).
type (
	// Event is the typed union of everything observable during a run.
	Event = obs.Event
	// Observer consumes a run's event stream.
	Observer = obs.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = obs.ObserverFunc
	// ModeSwitchEvent reports a DM mode change (aliased so public Observers
	// can type-switch without importing internal packages).
	ModeSwitchEvent = obs.ModeSwitch
	// InvariantViolationEvent reports that φInv failed at a DM sampling
	// instant (the executor's monitor runs in every run).
	InvariantViolationEvent = obs.InvariantViolation
)

// Modes.
const (
	// ModeSC: the certified safe controller is in control.
	ModeSC = rta.ModeSC
	// ModeAC: the advanced (untrusted) controller is in control.
	ModeAC = rta.ModeAC
)

// Switch reasons, as carried by ModeSwitchEvent.Reason.
// A policy's Decide reports the first four; the framework sets the last two.
const (
	// ReasonNone: the decision kept the current mode with nothing noteworthy
	// to report (the zero value of the vocabulary).
	ReasonNone = rta.ReasonNone
	// ReasonTTFTrip: the policy disengaged the AC because ttf2Δ failed.
	ReasonTTFTrip = rta.ReasonTTFTrip
	// ReasonRecovery: the policy's recovery condition re-engaged the AC.
	ReasonRecovery = rta.ReasonRecovery
	// ReasonDwellHold: the policy held SC although φsafer held (dwell or
	// hysteresis not yet satisfied); never appears on an actual switch.
	ReasonDwellHold = rta.ReasonDwellHold
	// ReasonClamped: the framework overrode a policy's unsafe AC proposal.
	ReasonClamped = rta.ReasonClamped
	// ReasonCoordinated: a forced demotion through a coordination link.
	ReasonCoordinated = rta.ReasonCoordinated
)

// ParsePolicy resolves a policy spec ("name" or "name:K") against the fixed
// table of built-in policies that scenarios, jobs and CLIs select from:
// soter-fig9 (the paper's Figure 9 rules, the default, also selected by
// ""), sticky-sc (minimum SC dwell), hysteresis (recovery debounce),
// always-ac and always-sc (ablation bounds). An application's own Policy
// needs no name: it goes straight into ModuleDecl.Policy.
func ParsePolicy(spec string) (Policy, error) { return rta.ParsePolicy(spec) }

// CanonicalPolicySpec normalizes a policy spec, making the default name and
// defaulted parameters explicit ("" → "soter-fig9", "sticky-sc" →
// "sticky-sc:10").
func CanonicalPolicySpec(spec string) (string, error) { return rta.CanonicalPolicySpec(spec) }

// Composition and well-formedness errors.
var (
	// ErrNotWellFormed reports a violation of the structural well-formedness
	// conditions (P1a), (P1b) or a failed certificate check.
	ErrNotWellFormed = rta.ErrNotWellFormed
	// ErrNotComposable reports node or output overlap between modules.
	ErrNotComposable = rta.ErrNotComposable
)

// NewNode declares a periodic node (Figure 4): name, period, subscribed
// topics, published topics and the transition function.
func NewNode(name string, period time.Duration, inputs, outputs []TopicName, step StepFunc, opts ...NodeOption) (*Node, error) {
	return node.New(name, period, inputs, outputs, step, opts...)
}

// WithInit sets a node's initial-local-state constructor.
func WithInit(f func() State) NodeOption { return node.WithInit(f) }

// NewRTAModule compiles an RTA module declaration (Figure 7): it checks the
// structural well-formedness conditions and generates the decision module
// implementing the Figure 9 switching logic.
func NewRTAModule(d ModuleDecl) (*Module, error) { return rta.NewModule(d) }

// NewSystem composes RTA modules and plain nodes, enforcing the
// composability conditions of Section IV (disjoint nodes, disjoint outputs).
func NewSystem(modules []*Module, plain []*Node) (*System, error) {
	return rta.NewSystem(modules, plain)
}

// NewExecutor builds an executor for the system; envTopics declares
// environment-input topics and their defaults.
func NewExecutor(sys *System, envTopics []Topic, opts ...ExecutorOption) (*Executor, error) {
	return runtime.New(sys, envTopics, opts...)
}

// WithEnvironment installs the environment hook on an executor.
func WithEnvironment(env Environment) ExecutorOption { return runtime.WithEnvironment(env) }

// WithObservers attaches observers to the executor's event stream.
func WithObservers(observers ...Observer) ExecutorOption {
	return runtime.WithObservers(observers...)
}

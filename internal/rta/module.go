// Package rta implements the paper's core contribution: the runtime
// assurance (RTA) module (Section III). An RTA module is a tuple
// (Nac, Nsc, Ndm, Δ, φsafe, φsafer): an untrusted advanced controller node,
// a certified safe controller node, and a compiler-generated decision module
// that samples the monitored state every Δ and implements the switching
// logic of Figure 9:
//
//	mode = AC ∧ Reach(st, *, 2Δ) ⊄ φsafe  → mode' = SC
//	mode = SC ∧ st ∈ φsafer               → mode' = AC
//
// The package also implements the structural well-formedness checks (P1a,
// P1b), hooks for discharging the semantic obligations (P2a, P2b, P3)
// through a Certificate, and the output-disjoint composition of modules into
// RTA systems (Theorem 4.1). The executor (internal/runtime) monitors the
// module invariant φInv of Theorem 3.1 through SafeHolds in every run.
//
// The Figure 9 rules are one switching Policy among several. A fixed table
// names the built-ins (soter-fig9, sticky-sc, hysteresis, always-ac,
// always-sc) for ParsePolicy, so a policy spec means the same behaviour in
// every process; an application's own policy is passed as Decl.Policy.
// Whatever the policy, the module clamps an AC proposal to SC whenever
// ttf2Δ fails, so Theorem 3.1 holds for every policy.
package rta

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/node"
	"repro/internal/pubsub"
)

// Mode is the local state of a decision module: which controller's outputs
// are currently enabled.
type Mode int

// Modes. Every RTA module starts in SC mode, matching the initial
// configuration of the operational semantics (OE0 enables SC).
const (
	ModeSC Mode = iota + 1
	ModeAC
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSC:
		return "SC"
	case ModeAC:
		return "AC"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// StatePredicate evaluates a predicate over the monitored state of a module,
// presented as the valuation of the DM's subscribed topics. The paper
// implicitly assumes the topics read by the DM contain enough information to
// evaluate φsafe, φsafer and the reachability check; here that assumption is
// made explicit by the signature.
type StatePredicate func(pubsub.Valuation) bool

// Decl declares an RTA module, mirroring the source-level declaration of
// Figure 7:
//
//	rtamodule SafeMotionPrimitive {
//	    AC: MotionPrimitive, SC: MotionPrimitiveSC,
//	    delta: 100ms,
//	    phisafer: PhiSafer_MPr, ttf2d: TTF2D_MPr
//	}
type Decl struct {
	// Name of the module; must be unique within a system.
	Name string
	// AC is the advanced, uncertified, high-performance controller node.
	AC *node.Node
	// SC is the certified safe controller node.
	SC *node.Node
	// Delta is the period Δ of the decision module.
	Delta time.Duration
	// Monitored lists the topics the DM subscribes to. It must include all
	// inputs of AC and SC (the DM needs at least as much information as the
	// controllers). Extra monitoring topics are allowed.
	Monitored []pubsub.TopicName
	// TTF2Delta is ttf2Δ(st, φsafe): true when, starting from st, the
	// minimum time after which φsafe may not hold is ≤ 2Δ — equivalently,
	// Reach(st, *, 2Δ) ⊄ φsafe (Figure 9). When it returns true the DM
	// switches control to SC.
	TTF2Delta StatePredicate
	// InSafer is st ∈ φsafer: when true in SC mode the DM returns control
	// to AC.
	InSafer StatePredicate
	// Safe is φsafe itself, which the executor's φInv monitor evaluates
	// after every DM step (Theorem 3.1). Optional but strongly recommended;
	// without it violations cannot be detected.
	Safe StatePredicate
	// DMPhase offsets the DM's first decision. The module starts in SC mode
	// (the initial configuration of Section IV); the DM's first chance to
	// hand control to AC is its first firing. Zero defaults to
	// max(δ(AC), δ(SC)) — immediately after both controllers have run once —
	// so a module with a large Δ does not dwell in SC for a full period at
	// startup.
	DMPhase time.Duration
	// Policy is the switching policy the generated DM runs; nil selects the
	// built-in Figure 9 policy (the paper's rules, DefaultPolicyName). The
	// module clamps any policy output to SC whenever ttf2Δ fails, so the
	// Theorem 3.1 safety argument is independent of the policy ("policy
	// proposes, module disposes"). Resolve named policies with ParsePolicy.
	Policy Policy
}

// Module is a compiled, well-formed-checked RTA module with its generated
// decision-module node. Construct with NewModule.
type Module struct {
	name      string
	ac, sc    *node.Node
	dm        *node.Node
	delta     time.Duration
	dmPhase   time.Duration
	monitored []pubsub.TopicName
	ttf       StatePredicate
	inSafer   StatePredicate
	safe      StatePredicate
	policy    Policy
	// decideCtx is the reusable decision context: DM steps of one module are
	// strictly sequential in both executors, so recycling it keeps the
	// per-decision path allocation-free (the zero-alloc discipline of the
	// rest of the tick loop). A Module's decision path is therefore not safe
	// for concurrent use — like node stepping, one run owns it.
	decideCtx DecisionContext
}

// Static (structural) well-formedness errors.
var (
	ErrNotWellFormed = errors.New("RTA module is not well-formed")
)

// NewModule compiles a module declaration: it checks the structural
// well-formedness conditions (P1a), (P1b) and the DM input-coverage
// requirement, and generates the decision-module node Ndm implementing the
// switching logic of Figure 9. The semantic conditions (P2a), (P2b), (P3)
// are discharged separately via Verify.
func NewModule(d Decl) (*Module, error) {
	if d.Name == "" {
		return nil, fmt.Errorf("%w: empty module name", ErrNotWellFormed)
	}
	if d.AC == nil || d.SC == nil {
		return nil, fmt.Errorf("%w: module %q: AC and SC nodes are required", ErrNotWellFormed, d.Name)
	}
	if d.TTF2Delta == nil || d.InSafer == nil {
		return nil, fmt.Errorf("%w: module %q: TTF2Delta and InSafer predicates are required", ErrNotWellFormed, d.Name)
	}
	if d.Delta <= 0 {
		return nil, fmt.Errorf("%w: module %q: Δ = %v must be positive", ErrNotWellFormed, d.Name, d.Delta)
	}
	// (P1a) δ(Ndm) = Δ, δ(Nac) ≤ Δ, δ(Nsc) ≤ Δ.
	if p := d.AC.Period(); p > d.Delta {
		return nil, fmt.Errorf("%w: module %q: (P1a) AC period %v exceeds Δ = %v", ErrNotWellFormed, d.Name, p, d.Delta)
	}
	if p := d.SC.Period(); p > d.Delta {
		return nil, fmt.Errorf("%w: module %q: (P1a) SC period %v exceeds Δ = %v", ErrNotWellFormed, d.Name, p, d.Delta)
	}
	// (P1b) O(Nac) = O(Nsc).
	if !node.SameOutputs(d.AC, d.SC) {
		return nil, fmt.Errorf("%w: module %q: (P1b) AC outputs %v differ from SC outputs %v",
			ErrNotWellFormed, d.Name, d.AC.Outputs(), d.SC.Outputs())
	}
	if d.AC.Name() == d.SC.Name() {
		return nil, fmt.Errorf("%w: module %q: AC and SC must be distinct nodes", ErrNotWellFormed, d.Name)
	}
	// The DM subscribes to at least the topics subscribed by either node:
	// I(Nac) ⊆ Idm and I(Nsc) ⊆ Idm.
	monitored := unionTopics(d.Monitored, d.AC.Inputs(), d.SC.Inputs())
	phase := d.DMPhase
	if phase == 0 {
		phase = d.AC.Period()
		if p := d.SC.Period(); p > phase {
			phase = p
		}
	}
	if phase < 0 {
		return nil, fmt.Errorf("%w: module %q: DM phase %v must be non-negative", ErrNotWellFormed, d.Name, phase)
	}
	policy := d.Policy
	if policy == nil {
		policy = fig9{}
	}
	m := &Module{
		name:      d.Name,
		ac:        d.AC,
		sc:        d.SC,
		delta:     d.Delta,
		dmPhase:   phase,
		monitored: monitored,
		ttf:       d.TTF2Delta,
		inSafer:   d.InSafer,
		safe:      d.Safe,
		policy:    policy,
	}
	dm, err := m.generateDM()
	if err != nil {
		return nil, fmt.Errorf("module %q: generate DM: %w", d.Name, err)
	}
	m.dm = dm
	return m, nil
}

// generateDM builds the decision-module node. Its local state is a DMState
// (mode + policy state + last decision reason); it subscribes to the
// monitored topics and publishes nothing — the runtime reads its mode to
// update the output-enable map OE (rule DM-STEP, dm2).
func (m *Module) generateDM() (*node.Node, error) {
	step := func(st node.State, in pubsub.Valuation) (node.State, pubsub.Valuation, error) {
		dm, ok := st.(DMState)
		if !ok {
			return nil, nil, fmt.Errorf("decision module local state has type %T, want rta.DMState", st)
		}
		return m.decideState(dm, in), nil, nil
	}
	return node.New(
		m.name+".dm",
		m.delta,
		m.monitored,
		nil,
		step,
		node.WithInit(func() node.State { return m.initDMState() }),
		node.WithPhase(m.dmPhase),
	)
}

// initDMState is the initial DM local state: SC mode (the initial
// configuration of Section IV, OE0 enables SC) with the policy's initial
// state.
func (m *Module) initDMState() DMState {
	return DMState{Mode: ModeSC, Policy: m.policy.Init()}
}

// decideState applies the module's switching policy to the current DM state
// and monitored state, then enforces the framework's safety clamp: a
// proposed AC is overridden to SC whenever ttf2Δ fails, so no policy —
// however adversarial — can hold AC in a state from which φsafe could be
// left within 2Δ. With the default Figure 9 policy this reproduces Decide
// exactly (the paper's rules never propose AC against a failing ttf2Δ).
func (m *Module) decideState(st DMState, in pubsub.Valuation) DMState {
	ctx := &m.decideCtx
	*ctx = DecisionContext{
		Module:  m.name,
		Current: st.Mode,
		Delta:   m.delta,
		state:   in,
		ttf:     m.ttf,
		inSafer: m.inSafer,
	}
	mode, ps, reason := m.policy.Decide(st.Policy, ctx)
	switch reason {
	case ReasonNone, ReasonTTFTrip, ReasonRecovery, ReasonDwellHold:
	default:
		// Clamped and coordinated are framework-owned (a policy must not
		// claim the module overrode it, or corrupt the Clamped metric), and
		// reasons outside the documented vocabulary must not leak into
		// traces. Normalize both away.
		reason = ReasonNone
	}
	if mode != ModeAC {
		// Any proposal other than AC fails safe to SC (unknown modes
		// included), like the hardwired DM did.
		mode = ModeSC
	}
	if mode == ModeAC && ctx.TTF2Delta() {
		// The clamp: policy proposes, module disposes.
		mode, reason = ModeSC, ReasonClamped
	}
	return DMState{Mode: mode, Reason: reason, Policy: ps}
}

// Decide applies the module's switching policy (with a fresh policy state)
// to the current mode and monitored state, returning the next mode. For the
// default policy this is the switching logic of Figure 9:
//
//	mode = AC ∧ ttf2Δ        → SC
//	mode = SC ∧ st ∈ φsafer  → AC
//
// A stateful policy runs in the module's DM node, which threads the policy
// state from one decision to the next; Decide answers the memoryless
// question "what would a fresh DM decide here".
func (m *Module) Decide(mode Mode, st pubsub.Valuation) Mode {
	return m.decideState(DMState{Mode: mode, Policy: m.policy.Init()}, st).Mode
}

// Policy returns the module's switching policy.
func (m *Module) Policy() Policy { return m.policy }

// Name returns the module name.
func (m *Module) Name() string { return m.name }

// AC returns the advanced controller node.
func (m *Module) AC() *node.Node { return m.ac }

// SC returns the safe controller node.
func (m *Module) SC() *node.Node { return m.sc }

// DM returns the generated decision-module node.
func (m *Module) DM() *node.Node { return m.dm }

// Delta returns the DM period Δ.
func (m *Module) Delta() time.Duration { return m.delta }

// Monitored returns a copy of the topics the DM subscribes to.
func (m *Module) Monitored() []pubsub.TopicName {
	out := make([]pubsub.TopicName, len(m.monitored))
	copy(out, m.monitored)
	return out
}

// Outputs returns the output topics O(M) of the module (equal for AC and SC
// by (P1b)).
func (m *Module) Outputs() []pubsub.TopicName { return m.ac.Outputs() }

// SafeHolds evaluates φsafe on the monitored state; it returns true when no
// Safe predicate was declared (nothing to monitor).
func (m *Module) SafeHolds(st pubsub.Valuation) bool {
	if m.safe == nil {
		return true
	}
	return m.safe(st)
}

// TTF2Delta evaluates the module's time-to-failure predicate.
func (m *Module) TTF2Delta(st pubsub.Valuation) bool { return m.ttf(st) }

// InSafer evaluates st ∈ φsafer.
func (m *Module) InSafer(st pubsub.Valuation) bool { return m.inSafer(st) }

// Certificate discharges the semantic well-formedness obligations of a
// module (Section III-C). Implementations typically come from the
// reachability analyses in internal/reach; tests may use analytic proofs.
type Certificate interface {
	// CheckP2a verifies (P2a) Safety: Reach(φsafe, Nsc, ∞) ⊆ φsafe — φsafe
	// is invariant under the safe controller.
	CheckP2a() error
	// CheckP2b verifies (P2b) Liveness: from every state in φsafe, under
	// Nsc the system reaches, in finite time, a state from which it stays
	// in φsafer for at least Δ.
	CheckP2b() error
	// CheckP3 verifies (P3): Reach(φsafer, *, 2Δ) ⊆ φsafe — from φsafer,
	// any controller keeps the system in φsafe for 2Δ.
	CheckP3() error
}

// Verify discharges (P2a), (P2b), (P3) with the given certificate. A module
// that passes NewModule and Verify is well-formed in the sense of
// Section III-C, so Theorem 3.1 applies.
func (m *Module) Verify(cert Certificate) error {
	if cert == nil {
		return fmt.Errorf("%w: module %q: nil certificate", ErrNotWellFormed, m.name)
	}
	if err := cert.CheckP2a(); err != nil {
		return fmt.Errorf("%w: module %q: (P2a): %v", ErrNotWellFormed, m.name, err)
	}
	if err := cert.CheckP2b(); err != nil {
		return fmt.Errorf("%w: module %q: (P2b): %v", ErrNotWellFormed, m.name, err)
	}
	if err := cert.CheckP3(); err != nil {
		return fmt.Errorf("%w: module %q: (P3): %v", ErrNotWellFormed, m.name, err)
	}
	return nil
}

func unionTopics(sets ...[]pubsub.TopicName) []pubsub.TopicName {
	seen := make(map[pubsub.TopicName]bool)
	var out []pubsub.TopicName
	for _, set := range sets {
		for _, t := range set {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	// Deterministic order.
	slices.Sort(out)
	return out
}

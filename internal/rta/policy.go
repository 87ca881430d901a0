package rta

// This file generalizes the decision module's switching logic into a
// pluggable Policy API. The paper hardwires the Figure 9 rules into the DM;
// here the rules become one policy among several, and — crucially — the
// safety argument no longer depends on which policy runs: the module clamps
// any policy output to SC whenever ttf2Δ fails ("policy proposes, module
// disposes"), so the Theorem 3.1 guarantee holds for every policy by
// construction. Policies only trade performance (AC utilisation, switching
// rate) against conservatism, which is exactly the ablation axis Remark 3.3
// discusses.

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/pubsub"
)

// SwitchReason explains a decision module's most recent decision. Reasons
// ride on mode-switch events (obs.ModeSwitch.Reason) so traces are
// self-describing: a disengagement caused by the safety check reads
// differently from one forced on the policy by the framework clamp.
type SwitchReason string

// Switch reasons.
const (
	// ReasonNone marks a decision that kept the current mode with nothing
	// noteworthy to report.
	ReasonNone SwitchReason = ""
	// ReasonTTFTrip is an AC→SC disengagement decided by the policy because
	// ttf2Δ failed (the Figure 9 trigger).
	ReasonTTFTrip SwitchReason = "ttf-trip"
	// ReasonRecovery is an SC→AC re-engagement: the policy's recovery
	// condition (φsafer, plus any dwell/hysteresis it adds) was met.
	ReasonRecovery SwitchReason = "recovery"
	// ReasonDwellHold marks a decision that stayed in SC although φsafer
	// held, because the policy's dwell or hysteresis condition was not yet
	// met. It never appears on a mode switch (the mode did not change); it is
	// recorded in the DM state for inspection.
	ReasonDwellHold SwitchReason = "dwell-hold"
	// ReasonClamped marks a decision where the policy proposed AC in a state
	// where ttf2Δ fails and the framework overrode it to SC — the clamp that
	// keeps every policy, however adversarial, inside the Theorem 3.1
	// argument.
	ReasonClamped SwitchReason = "clamped"
	// ReasonCoordinated marks a forced demotion through a coordinated-
	// switching link (Section VII) rather than the module's own decision.
	ReasonCoordinated SwitchReason = "coordinated"
)

// PolicyState is a switching policy's private per-module state. It lives in
// the DM node's local state (DMState.Policy), so it obeys the same
// determinism and isolation rules as every other node state: one instance
// per run, threaded through Decide, never shared.
type PolicyState any

// DMState is the local state of a generated decision-module node. The seed
// codebase stored a bare Mode here; the policy redesign generalizes it to the
// mode plus the policy's private state and the reason for the most recent
// decision (which the executor stamps onto mode-switch events).
type DMState struct {
	// Mode is which controller's outputs are enabled.
	Mode Mode
	// Reason explains the most recent Decide outcome.
	Reason SwitchReason
	// Policy is the switching policy's private state.
	Policy PolicyState
}

// DecisionContext is what a policy may observe at a DM sampling instant. The
// safety predicates are exposed as memoized methods rather than pre-computed
// fields so a policy only pays for what it reads — the Figure 9 policy in AC
// mode never evaluates φsafer, exactly like the hardwired DM did — and so a
// predicate with internal bookkeeping is evaluated at most once per instant.
type DecisionContext struct {
	// Module is the deciding module's name.
	Module string
	// Current is the mode entering the decision.
	Current Mode
	// Delta is the DM period Δ; policies that dwell for "K periods" count
	// decisions, each Δ apart.
	Delta time.Duration

	state   pubsub.Valuation
	ttf     StatePredicate
	inSafer StatePredicate

	ttfDone, ttfVal     bool
	saferDone, saferVal bool
}

// TTF2Delta evaluates (memoized) ttf2Δ(st, φsafe): true when the worst-case
// 2Δ-reachable set can leave φsafe, i.e. the state is unsafe to leave under
// AC control.
func (c *DecisionContext) TTF2Delta() bool {
	if !c.ttfDone {
		c.ttfVal = c.ttf(c.state)
		c.ttfDone = true
	}
	return c.ttfVal
}

// InSafer evaluates (memoized) st ∈ φsafer — the paper's recovery condition.
func (c *DecisionContext) InSafer() bool {
	if !c.saferDone {
		c.saferVal = c.inSafer(c.state)
		c.saferDone = true
	}
	return c.saferVal
}

// State returns the monitored-topic valuation of the sampling instant.
// Policies must not retain or mutate it.
func (c *DecisionContext) State() pubsub.Valuation { return c.state }

// Policy decides which controller an RTA module should run. Decide proposes
// the next mode from the policy's private state and the decision context; the
// module then enforces safety on top: a proposed AC is clamped to SC whenever
// ttf2Δ fails, so no policy can hold AC in a state from which φsafe could be
// left within 2Δ. Policies must be deterministic (same state and context →
// same decision) and must not share mutable state across instances returned
// by their factory — fleet workers run one instance per mission.
type Policy interface {
	// Name returns the policy's canonical spec string ("soter-fig9",
	// "sticky-sc:10", ...) — the form Canonical()/Fingerprint() hash and the
	// service reports, with defaulted parameters made explicit.
	Name() string
	// Init returns the initial policy state (paired with the initial SC mode).
	Init() PolicyState
	// Decide proposes the next mode, the successor policy state and the
	// reason for the decision. Policies may return ReasonNone, ReasonTTFTrip,
	// ReasonRecovery or ReasonDwellHold; ReasonClamped and ReasonCoordinated
	// are framework-owned and, like any reason outside the vocabulary, are
	// normalized to ReasonNone by the module.
	Decide(st PolicyState, ctx *DecisionContext) (Mode, PolicyState, SwitchReason)
}

// DefaultPolicyName names the built-in policy that reproduces the paper's
// hardwired Figure 9 switching logic — the default everywhere a policy can be
// named but is not.
const DefaultPolicyName = "soter-fig9"

// --- Built-in policies ------------------------------------------------------

// fig9 is the paper's switching logic (Figure 9), verbatim:
//
//	mode = AC ∧ ttf2Δ          → SC
//	mode = SC ∧ st ∈ φsafer    → AC
type fig9 struct{}

func (fig9) Name() string      { return DefaultPolicyName }
func (fig9) Init() PolicyState { return nil }

func (fig9) Decide(_ PolicyState, ctx *DecisionContext) (Mode, PolicyState, SwitchReason) {
	switch ctx.Current {
	case ModeAC:
		if ctx.TTF2Delta() {
			return ModeSC, nil, ReasonTTFTrip
		}
		return ModeAC, nil, ReasonNone
	case ModeSC:
		if ctx.InSafer() {
			return ModeAC, nil, ReasonRecovery
		}
		return ModeSC, nil, ReasonNone
	default:
		// Unknown mode: fail safe, like the hardwired DM did.
		return ModeSC, nil, ReasonNone
	}
}

// stickySC is Figure 9 plus a minimum SC dwell: the module stays on the
// certified controller for at least `dwell` DM periods before φsafer may
// hand control back. The dwell applies to every entry into SC — a
// disengagement, a coordinated demotion, and the initial SC mode at startup
// alike — suppressing rapid AC/SC flapping around the φsafer boundary at
// the cost of AC utilisation.
type stickySC struct{ dwell int }

// stickyState counts DM periods spent in SC since the last disengagement.
type stickyState struct{ inSC int }

func (p stickySC) Name() string      { return fmt.Sprintf("sticky-sc:%d", p.dwell) }
func (p stickySC) Init() PolicyState { return stickyState{} }

func (p stickySC) Decide(st PolicyState, ctx *DecisionContext) (Mode, PolicyState, SwitchReason) {
	s, _ := st.(stickyState)
	switch ctx.Current {
	case ModeAC:
		if ctx.TTF2Delta() {
			return ModeSC, stickyState{}, ReasonTTFTrip
		}
		return ModeAC, stickyState{}, ReasonNone
	default: // SC (or unknown: fail safe and dwell)
		s.inSC++
		if s.inSC < p.dwell {
			return ModeSC, s, ReasonDwellHold
		}
		if ctx.InSafer() {
			return ModeAC, stickyState{}, ReasonRecovery
		}
		return ModeSC, s, ReasonNone
	}
}

// hysteresis is Figure 9 with a debounced recovery: SC→AC requires φsafer to
// hold for `periods` consecutive DM samples. One noisy sample inside φsafer
// no longer re-engages the AC — the temporal analogue of the spatial
// hysteresis knob (Remark 3.3's φsafer margin).
type hysteresis struct{ periods int }

// hystState counts consecutive in-φsafer SC samples.
type hystState struct{ safer int }

func (p hysteresis) Name() string      { return fmt.Sprintf("hysteresis:%d", p.periods) }
func (p hysteresis) Init() PolicyState { return hystState{} }

func (p hysteresis) Decide(st PolicyState, ctx *DecisionContext) (Mode, PolicyState, SwitchReason) {
	s, _ := st.(hystState)
	switch ctx.Current {
	case ModeAC:
		if ctx.TTF2Delta() {
			return ModeSC, hystState{}, ReasonTTFTrip
		}
		return ModeAC, hystState{}, ReasonNone
	default: // SC (or unknown: fail safe)
		if !ctx.InSafer() {
			return ModeSC, hystState{}, ReasonNone
		}
		s.safer++
		if s.safer < p.periods {
			return ModeSC, s, ReasonDwellHold
		}
		return ModeAC, hystState{}, ReasonRecovery
	}
}

// alwaysAC is the adversarial baseline: it proposes the untrusted controller
// at every instant. The framework clamp is the only thing keeping it safe —
// which is precisely what makes it useful, both as the upper bound on AC
// utilisation in ablations and as the witness that safety is enforced by the
// module, not by policy good behaviour.
type alwaysAC struct{}

func (alwaysAC) Name() string      { return "always-ac" }
func (alwaysAC) Init() PolicyState { return nil }

func (alwaysAC) Decide(_ PolicyState, ctx *DecisionContext) (Mode, PolicyState, SwitchReason) {
	if ctx.Current == ModeSC {
		return ModeAC, nil, ReasonRecovery
	}
	return ModeAC, nil, ReasonNone
}

// alwaysSC never leaves the certified controller — the SC-only lower bound
// expressed as a policy (the module still runs both controllers; compare
// mission.ProtectSCOnly, which removes the AC from the system entirely).
type alwaysSC struct{}

func (alwaysSC) Name() string      { return "always-sc" }
func (alwaysSC) Init() PolicyState { return nil }

func (alwaysSC) Decide(_ PolicyState, _ *DecisionContext) (Mode, PolicyState, SwitchReason) {
	return ModeSC, nil, ReasonNone
}

// --- Policy table -----------------------------------------------------------

// Built-in parameter defaults.
const (
	// DefaultStickyDwell is sticky-sc's minimum SC dwell in DM periods.
	DefaultStickyDwell = 10
	// DefaultHysteresisPeriods is hysteresis's consecutive-φsafer requirement.
	DefaultHysteresisPeriods = 3
)

// policies maps each policy name — the first component of a spec — to the
// factory building it from the spec's integer parameter ("name:K"). The
// parameter is 0 when the spec had none; factories substitute their default
// or reject a parameter they do not take. The table is fixed, so a spec
// names the same behaviour in every process — what lets a scenario
// fingerprint hash it. A new built-in is a new entry here; an application's
// own policy goes straight into Decl.Policy.
var policies = map[string]func(param int) (Policy, error){
	DefaultPolicyName: noParam(fig9{}),
	"always-ac":       noParam(alwaysAC{}),
	"always-sc":       noParam(alwaysSC{}),
	"sticky-sc": func(param int) (Policy, error) {
		if param == 0 {
			param = DefaultStickyDwell
		}
		return stickySC{dwell: param}, nil
	},
	"hysteresis": func(param int) (Policy, error) {
		if param == 0 {
			param = DefaultHysteresisPeriods
		}
		return hysteresis{periods: param}, nil
	},
}

// noParam is the factory of a policy that takes no parameter.
func noParam(p Policy) func(param int) (Policy, error) {
	return func(param int) (Policy, error) {
		if param != 0 {
			return nil, fmt.Errorf("policy %q takes no parameter", p.Name())
		}
		return p, nil
	}
}

// PolicyNames returns the policy names, sorted.
func PolicyNames() []string { return slices.Sorted(maps.Keys(policies)) }

// ParsePolicy resolves a policy spec — "name" or "name:K" with K a positive
// integer parameter — against the policy table. The empty spec resolves to
// the default Figure 9 policy.
func ParsePolicy(spec string) (Policy, error) {
	name, param := spec, 0
	if spec == "" {
		name = DefaultPolicyName
	}
	if i := strings.IndexByte(name, ':'); i >= 0 {
		raw := name[i+1:]
		name = name[:i]
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("policy spec %q: parameter %q must be a positive integer", spec, raw)
		}
		param = n
	}
	f, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("unknown policy %q (have: %s)", name, strings.Join(PolicyNames(), ", "))
	}
	return f(param)
}

// CanonicalPolicySpec normalizes a policy spec to its canonical form, with
// the default name and defaulted parameters made explicit: "" →
// "soter-fig9", "sticky-sc" → "sticky-sc:10". Two specs with equal canonical
// forms denote the same switching behaviour — the property the scenario
// layer's Canonical()/Fingerprint() cache keys rely on.
func CanonicalPolicySpec(spec string) (string, error) {
	p, err := ParsePolicy(spec)
	if err != nil {
		return "", err
	}
	return p.Name(), nil
}

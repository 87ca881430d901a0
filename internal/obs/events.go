// Package obs is the unified observability layer of the execution surface.
// The paper's whole evaluation is about *observing* a running RTA system —
// mode switches, φInv checks, trajectories, crashes — and before this layer
// existed every consumer tapped a different ad-hoc channel: the executor's
// single switch hook, the simulator's private metric closures, the fleet
// engine's re-derived views. Package obs replaces them with one typed event
// stream and many composable consumers:
//
//   - Event is a closed union of everything that happens during a run:
//     RunStart/RunEnd, NodeFired, ModeSwitch, InvariantViolation,
//     TimeProgress, TrajectorySample, BatterySample, Crash, Landed — plus
//     the falsification-campaign pair CampaignProgress/CounterexampleFound,
//     which report on a *search over* runs rather than a single run.
//   - Observer consumes events; Multi fans one stream out to many observers;
//     ObserverFunc adapts plain functions.
//   - Built-in sinks cover the common consumers: JSONLWriter streams the run
//     as one JSON object per line, Recorder keeps a bounded in-memory tail,
//     and MetricsSink aggregates the stream into the Metrics the paper's
//     evaluation reports.
//
// Emitters (internal/runtime's executor, internal/sim's closed-loop runner)
// deliver events synchronously on the run goroutine in a deterministic
// order: the same seed yields the identical event sequence, which is what
// makes recorded streams replayable and fleet runs comparable at any worker
// count.
package obs

import (
	"time"

	"repro/internal/geom"
	"repro/internal/rta"
)

// Kind identifies an event variant.
type Kind uint8

// The event kinds, in the order they typically appear in a stream.
const (
	KindRunStart Kind = iota
	KindRunEnd
	KindNodeFired
	KindModeSwitch
	KindInvariantViolation
	KindTimeProgress
	KindTrajectorySample
	KindBatterySample
	KindCrash
	KindLanded
	KindCampaignProgress
	KindCounterexample
	KindCertifyProgress
	numKinds
)

// KindCount is the number of event kinds — the size of per-kind dispatch
// tables (see ByKind).
const KindCount = int(numKinds)

// String returns the kind's wire name (the "kind" field of the JSONL form).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

var kindNames = [numKinds]string{
	KindRunStart:           "run_start",
	KindRunEnd:             "run_end",
	KindNodeFired:          "node_fired",
	KindModeSwitch:         "mode_switch",
	KindInvariantViolation: "invariant_violation",
	KindTimeProgress:       "time_progress",
	KindTrajectorySample:   "trajectory_sample",
	KindBatterySample:      "battery_sample",
	KindCrash:              "crash",
	KindLanded:             "landed",
	KindCampaignProgress:   "campaign_progress",
	KindCounterexample:     "counterexample",
	KindCertifyProgress:    "certify_progress",
}

// KindSet is a bitmask of event kinds. Observers may narrow the kinds they
// receive by implementing Interested; emitters use the mask to skip both the
// dispatch and the event construction for kinds nobody wants, which keeps
// the per-firing hot path free when only aggregate consumers are attached.
type KindSet uint16

// AllKinds selects every event kind.
const AllKinds = KindSet(1<<numKinds - 1)

// Kinds builds a set from the listed kinds.
func Kinds(ks ...Kind) KindSet {
	var s KindSet
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

// Has reports whether the set contains k.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// Event is the typed union of everything observable during a run. Concrete
// events are small value types; consumers dispatch with a type switch (or on
// Kind). Events are delivered synchronously on the emitting goroutine and
// must not be mutated; retaining them is safe.
type Event interface {
	// Kind identifies the variant without a type switch.
	Kind() Kind
}

// RunStart opens a run's event stream. Modules lists the RTA modules of the
// system (every one starts in SC mode), so aggregating sinks can initialise
// per-module accounting without reaching into the system under test.
type RunStart struct {
	T time.Duration `json:"t_ns"`
	// Seed is the run's randomness seed.
	Seed int64 `json:"seed"`
	// Label names the run (scenario name, mission name); may be empty.
	Label string `json:"label,omitempty"`
	// Modules lists the system's RTA module names.
	Modules []string `json:"modules,omitempty"`
}

// RunEnd closes a run's event stream with the final state that is not
// derivable from earlier events.
type RunEnd struct {
	T time.Duration `json:"t_ns"`
	// TargetsVisited is the application-level visit counter at run end.
	TargetsVisited int `json:"targets_visited"`
	// Battery is the final charge fraction.
	Battery float64 `json:"battery"`
	// Err carries the run-terminating error ("context canceled", ...); empty
	// for a run that reached its deadline or mission end.
	Err string `json:"err,omitempty"`
}

// NodeFired reports one discrete node firing (DM-STEP or AC-OR-SC-STEP), or
// a firing skipped by the drop filter when Dropped is set (a missed deadline
// under best-effort scheduling — the Section V-D failure mode).
type NodeFired struct {
	T    time.Duration `json:"t_ns"`
	Node string        `json:"node"`
	// DM marks a decision-module firing.
	DM bool `json:"dm,omitempty"`
	// Dropped marks a firing skipped by the drop filter.
	Dropped bool `json:"dropped,omitempty"`
}

// ModeSwitch reports a decision-module mode change — a disengagement when
// To = SC (the certified controller "takes over"), a re-engagement when
// To = AC.
type ModeSwitch struct {
	T      time.Duration `json:"t_ns"`
	Module string        `json:"module"`
	From   rta.Mode      `json:"from"`
	To     rta.Mode      `json:"to"`
	// Reason explains the decision behind the switch: "ttf-trip" (the safety
	// check disengaged the AC), "recovery" (the policy's recovery condition
	// re-engaged it), "clamped" (the framework overrode a policy's AC
	// proposal in an unsafe state) or "coordinated" (forced demotion).
	Reason rta.SwitchReason `json:"reason,omitempty"`
	// Coordinated marks a forced demotion through a coordinated-switching
	// link rather than the module's own DM decision.
	Coordinated bool `json:"coordinated,omitempty"`
}

// InvariantViolation reports that the Theorem 3.1 invariant φInv failed at a
// DM sampling instant: φsafe did not hold after the DM step. The executor's
// monitor checks every DM step of every run; Mode is the mode the step left
// the module in.
type InvariantViolation struct {
	T      time.Duration `json:"t_ns"`
	Module string        `json:"module"`
	Mode   rta.Mode      `json:"mode"`
}

// TimeProgress reports a DISCRETE-TIME-PROGRESS-STEP: the clock advanced
// from Prev to T and the environment hook ran over the interval.
type TimeProgress struct {
	T    time.Duration `json:"t_ns"`
	Prev time.Duration `json:"prev_ns"`
}

// TrajectorySample is one physics sub-step of the flown trajectory.
type TrajectorySample struct {
	T   time.Duration `json:"t_ns"`
	Pos geom.Vec3     `json:"pos"`
	Vel geom.Vec3     `json:"vel"`
	// Mode is the motion-primitive module's mode at the sample (ModeAC when
	// the system has no protected motion layer).
	Mode rta.Mode `json:"mode"`
	// Landed marks samples taken after touchdown.
	Landed bool `json:"landed,omitempty"`
}

// BatterySample is a periodic reading of the battery charge fraction.
type BatterySample struct {
	T      time.Duration `json:"t_ns"`
	Charge float64       `json:"charge"`
}

// Crash reports the entry into a collision episode (an obstacle or ground
// impact). Runs configured to keep flying after a crash emit one Crash per
// distinct episode.
type Crash struct {
	T   time.Duration `json:"t_ns"`
	Pos geom.Vec3     `json:"pos"`
}

// Landed reports an intentional touchdown.
type Landed struct {
	T   time.Duration `json:"t_ns"`
	Pos geom.Vec3     `json:"pos"`
	// Battery is the charge fraction at touchdown.
	Battery float64 `json:"battery"`
}

// CampaignProgress reports the state of a falsification campaign after a
// batch of candidate executions. Campaign events use a pseudo-clock — T is
// the number of executions completed, expressed as nanoseconds — so streams
// stay monotone and deterministic without consulting a wall clock.
type CampaignProgress struct {
	T time.Duration `json:"t_ns"`
	// Scenario is the base scenario the campaign searches around.
	Scenario string `json:"scenario,omitempty"`
	// Strategy is the canonical strategy spec ("random", "guided:8", ...).
	Strategy string `json:"strategy,omitempty"`
	// Executions is the number of candidate runs completed so far.
	Executions int `json:"executions"`
	// Budget is the campaign's total execution budget.
	Budget int `json:"budget"`
	// Found is the number of distinct counterexamples found so far.
	Found int `json:"found"`
	// BestSeverity is the highest severity observed so far (0 when none).
	BestSeverity float64 `json:"best_severity"`
}

// CounterexampleFound reports one distinct counterexample the moment a
// falsification campaign confirms it. T is the campaign pseudo-clock (see
// CampaignProgress). The fingerprint plus seed is the complete replay key.
type CounterexampleFound struct {
	T time.Duration `json:"t_ns"`
	// Strategy is the canonical strategy spec that found it.
	Strategy string `json:"strategy,omitempty"`
	// Scenario is the auto-registered regression scenario name
	// ("falsified/<hash>"); empty when auto-registration is off or the
	// counterexample is a schedule interleaving.
	Scenario string `json:"scenario,omitempty"`
	// Fingerprint is the canonical replay fingerprint of the counterexample.
	Fingerprint string `json:"fingerprint"`
	// Seed is the run seed that reproduces the violation.
	Seed int64 `json:"seed"`
	// Category classifies the violation: "crash", "invariant" or
	// "clamp-storm". (Not "kind": that key is the JSONL discriminator.)
	Category string `json:"category"`
	// Severity is the oracle's severity score for the run.
	Severity float64 `json:"severity"`
}

// CertifyProgress reports the state of a statistical certification campaign
// after a batch of seed evaluations: the crash-probability estimate with its
// narrowing confidence interval against the target threshold. T is the
// certification pseudo-clock — seeds consumed, expressed as nanoseconds —
// so streams stay monotone and deterministic without consulting a wall
// clock. Verdict is empty while the campaign is still running and carries
// the terminal verdict ("certified", "refuted", "inconclusive-at-budget")
// on the final event.
type CertifyProgress struct {
	T time.Duration `json:"t_ns"`
	// Scenario is the certified cell's base scenario.
	Scenario string `json:"scenario,omitempty"`
	// Policy is the cell's canonical switching-policy spec.
	Policy string `json:"policy,omitempty"`
	// Seeds is the number of seeds consumed so far; MaxSeeds the budget.
	Seeds    int `json:"seeds"`
	MaxSeeds int `json:"max_seeds"`
	// Crashes counts the evaluated runs that crashed, Violations those that
	// violated φInv; a run may count in both.
	Crashes    int `json:"crashes"`
	Violations int `json:"violations"`
	// Estimate is the estimate of P(crash ∨ φInv violation) (weighted in
	// the importance-sampling mode); [Lo, Hi] its confidence interval.
	Estimate float64 `json:"estimate"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	// Threshold is the failure-probability bound being tested.
	Threshold float64 `json:"threshold"`
	// Verdict is the terminal verdict; empty until the campaign concludes.
	Verdict string `json:"verdict,omitempty"`
}

// Kind implements Event.
func (RunStart) Kind() Kind            { return KindRunStart }
func (RunEnd) Kind() Kind              { return KindRunEnd }
func (NodeFired) Kind() Kind           { return KindNodeFired }
func (ModeSwitch) Kind() Kind          { return KindModeSwitch }
func (InvariantViolation) Kind() Kind  { return KindInvariantViolation }
func (TimeProgress) Kind() Kind        { return KindTimeProgress }
func (TrajectorySample) Kind() Kind    { return KindTrajectorySample }
func (BatterySample) Kind() Kind       { return KindBatterySample }
func (Crash) Kind() Kind               { return KindCrash }
func (Landed) Kind() Kind              { return KindLanded }
func (CampaignProgress) Kind() Kind    { return KindCampaignProgress }
func (CounterexampleFound) Kind() Kind { return KindCounterexample }
func (CertifyProgress) Kind() Kind     { return KindCertifyProgress }

package scenario

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/plan"
)

// Delta is the one declarative edit of a registered Spec: a
// JSON-serializable bundle of named knobs layered over a base, and the only
// code that maps a knob name onto a Spec field. Every surface that names a
// registered scenario from outside the process comes in through Resolve
// (registry name + Delta → validated Spec): soter-serve's /jobs, /certify
// and /falsify bodies, soter-falsify -base, soter-sim's flags and the
// committed counterexample corpus; falsification candidates layer their
// Delta over the campaign base with Apply. An absent field inherits the
// base's value, so a Delta is exactly what a counterexample needs to carry
// to be replayed, and the applied Spec's canonical fingerprint then
// identifies the run. The in-process sweep axis is Override, not Delta.
//
// The knobs the Spec reads as "zero means default" (hysteresis,
// initial_battery, drain_multiple, plan_margin, motion_delta_ns,
// duration_ns) are pointers: present means "use this value", and Apply
// refuses a present zero or negative one instead of silently running the
// default.
type Delta struct {
	// Policy selects the motion module's switching policy ("always-ac",
	// "sticky-sc:25", ...); empty inherits the base's.
	Policy string `json:"policy,omitempty"`
	// Workspace selects the obstacle-map family by name (see
	// WorkspaceFamilies); empty inherits. Only sensible for random-target
	// bases: fixed tours may leave another workspace's free space.
	Workspace string `json:"workspace,omitempty"`
	// MotionDelta / Hysteresis / PlanMargin are the Remark 3.3 knobs.
	MotionDelta *time.Duration `json:"motion_delta_ns,omitempty"`
	Hysteresis  *float64       `json:"hysteresis,omitempty"`
	PlanMargin  *float64       `json:"plan_margin,omitempty"`
	// FaultLen > 0 replaces the base's fault profile with periodic
	// full-thrust windows [FaultFirst + k·FaultEvery, +FaultLen) in
	// direction FaultDir (default +X).
	FaultFirst time.Duration `json:"fault_first_ns,omitempty"`
	FaultEvery time.Duration `json:"fault_every_ns,omitempty"`
	FaultLen   time.Duration `json:"fault_len_ns,omitempty"`
	FaultDir   *geom.Vec3    `json:"fault_dir,omitempty"`
	// PlannerBug injects an RRT* defect by its plan.Bug name at
	// PlannerBugRate; "none" also clears the base's rate.
	PlannerBug     string   `json:"planner_bug,omitempty"`
	PlannerBugRate *float64 `json:"planner_bug_rate,omitempty"`
	// JitterProb / JitterSCOnly are the Section V-D scheduling-outage knobs.
	JitterProb   *float64 `json:"jitter_prob,omitempty"`
	JitterSCOnly *bool    `json:"jitter_sc_only,omitempty"`
	// InitialBattery / DrainMultiple stress the battery layer.
	InitialBattery *float64 `json:"initial_battery,omitempty"`
	DrainMultiple  *float64 `json:"drain_multiple,omitempty"`
	// Duration overrides the mission horizon.
	Duration *time.Duration `json:"duration_ns,omitempty"`
	// NoPlannerModule / NoBatteryModule drop RTA layers.
	NoPlannerModule *bool `json:"no_planner_module,omitempty"`
	NoBatteryModule *bool `json:"no_battery_module,omitempty"`
}

// workspaceFamilies names the obstacle-map families a Delta may select, in
// the order WorkspaceFamilies lists them.
var workspaceFamilies = []struct {
	name  string
	build func() *geom.Workspace
}{
	{"city", geom.CityWorkspace},
	{"canyon", geom.CanyonWorkspace},
	{"corner-hazard", geom.CornerHazardWorkspace},
}

// WorkspaceFamilies lists the workspace family names Delta.Workspace takes.
func WorkspaceFamilies() []string {
	names := make([]string, len(workspaceFamilies))
	for i, f := range workspaceFamilies {
		names[i] = f.name
	}
	return names
}

// Apply layers the Delta over a base Spec and returns the concrete Spec it
// denotes. The base is not modified. The result is not validated: callers
// filter it through Spec.Validate, which owns the scenario layer's
// consistency rules (battery ≤ 1, hysteresis ≥ 1, a registered policy...).
func (d Delta) Apply(base Spec) (Spec, error) {
	s := base.With(Override{})
	if d.Policy != "" {
		s.SwitchPolicy = d.Policy
	}
	if d.Workspace != "" {
		i := slices.Index(WorkspaceFamilies(), d.Workspace)
		if i < 0 {
			return Spec{}, fmt.Errorf("unknown workspace family %q (want %s)",
				d.Workspace, strings.Join(WorkspaceFamilies(), " | "))
		}
		s.Workspace = workspaceFamilies[i].build
	}
	if d.FaultLen > 0 {
		dir := geom.V(1, 0, 0)
		if d.FaultDir != nil {
			dir = *d.FaultDir
		}
		s.Faults = FaultProfile{First: d.FaultFirst, Every: d.FaultEvery, Len: d.FaultLen, Dir: dir}
	}
	if d.PlannerBug != "" {
		bug, err := plan.ParseBug(d.PlannerBug)
		if err != nil {
			return Spec{}, err
		}
		s.PlannerBug = bug
		if bug == plan.BugNone {
			s.PlannerBugRate = 0
		}
	}
	set(&s.PlannerBugRate, d.PlannerBugRate)
	set(&s.JitterProb, d.JitterProb)
	set(&s.JitterSCOnly, d.JitterSCOnly)
	set(&s.NoPlannerModule, d.NoPlannerModule)
	set(&s.NoBatteryModule, d.NoBatteryModule)
	for _, err := range []error{
		positive(&s.MotionDelta, d.MotionDelta, "motion_delta_ns", "motion delta"),
		positive(&s.Hysteresis, d.Hysteresis, "hysteresis", "hysteresis"),
		positive(&s.PlanMargin, d.PlanMargin, "plan_margin", "plan margin"),
		positive(&s.InitialBattery, d.InitialBattery, "initial_battery", "initial battery"),
		positive(&s.DrainMultiple, d.DrainMultiple, "drain_multiple", "drain multiple"),
		positive(&s.Duration, d.Duration, "duration_ns", "duration"),
	} {
		if err != nil {
			return Spec{}, err
		}
	}
	return s, nil
}

// set copies a present knob onto its Spec field.
func set[T any](dst, v *T) {
	if v != nil {
		*dst = *v
	}
}

// positive copies a present "zero means default" knob onto its Spec field,
// refusing a non-positive value: the Spec would read it as the default and
// silently run something else.
func positive[T float64 | time.Duration](dst, v *T, field, what string) error {
	if v == nil {
		return nil
	}
	if *v <= 0 {
		return fmt.Errorf("%s %v must be positive (a non-positive %s would silently run the default)", field, *v, what)
	}
	*dst = *v
	return nil
}

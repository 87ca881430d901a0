// Package scenario is the declarative workload layer of the reproduction.
// The paper evaluates SOTER on a single case study — the drone surveillance
// mission of Section V — and the seed codebase hardwired that one workload
// across the mission, sim and experiment layers, every caller hand-assembling
// its own mission.StackConfig → sim.RunConfig plumbing. A Spec instead
// describes *what* a mission is — workspace layout, target generator, initial
// state, protection mode, AC kind, fault/planner-bug/jitter profile, battery
// model, Δ/hysteresis knobs — and Build compiles it into a ready
// sim.RunConfig. The package-level registry names the workloads so CLIs,
// experiment sweeps and the fleet grid builder (fleet.ScenarioGrid) can run
// any of them by name; registering a new workload is a ~30-line Spec instead
// of a new package.
//
// A knob a Spec leaves zero takes its value from mission.DefaultStackConfig,
// the one table of stack defaults; the switching policy names an entry of
// rta's fixed policy table. Build and Canonical read the same resolved Spec,
// so the fingerprint the result store keys on names exactly the mission
// that runs.
package scenario

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/controller"
	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/plan"
	"repro/internal/plant"
	"repro/internal/rta"
	"repro/internal/sim"
)

// FaultProfile declaratively injects periodic full-thrust fault windows into
// the untrusted advanced controller. The zero value injects nothing; a
// profile is active when Len is positive.
type FaultProfile struct {
	// First is the start of the first fault window.
	First time.Duration
	// Every spaces subsequent windows; zero or negative injects only the
	// First window.
	Every time.Duration
	// Len is the duration of each window; zero disables the profile.
	Len time.Duration
	// Dir is the thrust direction of the fault (controller.FaultFullThrust).
	Dir geom.Vec3
	// Spread offsets First by (seed mod Spread) whole seconds, decorrelating
	// fault times across a seed sweep (the Section V-D "sporadic failure").
	Spread time.Duration
	// MaxWindows caps the number of windows; zero means as many as fit
	// before the mission deadline.
	MaxWindows int
}

// Active reports whether the profile injects any faults.
func (p FaultProfile) Active() bool { return p.Len > 0 }

// windows expands the profile into concrete fault-injection windows for a
// mission of the given duration and seed.
func (p FaultProfile) windows(seed int64, duration time.Duration) []controller.Fault {
	if !p.Active() {
		return nil
	}
	first := p.First
	if sec := int64(p.Spread / time.Second); sec > 0 {
		off := seed % sec
		if off < 0 {
			off += sec
		}
		first += time.Duration(off) * time.Second
	}
	var out []controller.Fault
	for i := 0; ; i++ {
		start := first + time.Duration(i)*p.Every
		if start >= duration {
			break
		}
		out = append(out, controller.Fault{
			Kind:  controller.FaultFullThrust,
			Start: start,
			End:   start + p.Len,
			Param: p.Dir,
		})
		if p.Every <= 0 || (p.MaxWindows > 0 && len(out) >= p.MaxWindows) {
			break
		}
	}
	return out
}

// Spec is a declarative, self-contained description of one workload. The
// zero value of every field means "the paper's default": Build compiles a
// Spec by starting from mission.DefaultStackConfig and overriding only what
// the Spec sets, so a minimal Spec is just a name, a target set and a
// duration.
type Spec struct {
	// Name uniquely identifies the scenario in the registry.
	Name string
	// Description is the one-line catalog entry.
	Description string

	// Workspace lays out the obstacle map; nil defaults to the paper's city
	// workspace (geom.CityWorkspace).
	Workspace func() *geom.Workspace

	// Targets is the fixed surveillance tour; RandomTargets instead draws
	// each next target uniformly from free space (Section V-D style).
	// Exactly one of the two must be set.
	Targets       []geom.Vec3
	RandomTargets bool

	// Start is the initial position; the zero vector defaults to the first
	// target (or the city start pad when targets are random).
	Start geom.Vec3
	// InitialBattery is the initial charge fraction; zero defaults to full.
	InitialBattery float64
	// DrainMultiple scales both battery drain rates; zero defaults to 1.
	DrainMultiple float64

	// Protection selects RTA / AC-only / SC-only for the motion layer; AC
	// selects the untrusted motion primitive and LearnedBadFraction its
	// corruption level, a fraction in [0, 1]. Zero keeps
	// mission.DefaultStackConfig's value.
	Protection         mission.ProtectionMode
	AC                 mission.ACKind
	LearnedBadFraction float64
	// NoPlannerModule / NoBatteryModule drop the respective RTA layers;
	// OneWaySwitching disables the SC→AC return (classic Simplex).
	NoPlannerModule bool
	NoBatteryModule bool
	OneWaySwitching bool

	// MotionDelta and Hysteresis are the Δ / φsafer-horizon knobs of the
	// motion-primitive module (Remark 3.3); zero keeps the defaults.
	MotionDelta time.Duration
	Hysteresis  float64
	// SwitchPolicy names the motion-primitive module's switching policy in
	// rta's policy table ("soter-fig9", "sticky-sc:25", "hysteresis:5",
	// "always-ac", "always-sc"); empty selects the paper's Figure 9 rules.
	// Safety is policy-independent (the module clamps unsafe AC proposals to
	// SC), so the policy is a pure performance/conservatism axis — the
	// sweepable ablation dimension of the Section V comparisons.
	SwitchPolicy string
	// PlanMargin is the clearance planners aim for; zero keeps
	// mission.DefaultStackConfig's. Scenarios whose routes intentionally hug
	// obstacles (narrow passages, corner hazards) set it lower.
	PlanMargin float64

	// Faults injects periodic full-thrust windows into the AC.
	Faults FaultProfile
	// PlannerBug injects the selected defect into the RRT* AC planner at
	// PlannerBugRate (Section V-C); under BugSkipEdgeCheck a zero rate
	// selects plan.DefaultBugRate. Only BugSkipEdgeCheck reads the rate, so
	// under any other bug it is ignored (and not fingerprinted).
	PlannerBug     plan.Bug
	PlannerBugRate float64
	// JitterProb enables best-effort-scheduling outages (Section V-D);
	// JitterSCOnly restricts them to SC/DM nodes, the paper's failure mode.
	JitterProb   float64
	JitterSCOnly bool

	// Duration is the default mission length; must be positive.
	Duration time.Duration
}

// defaultStart is the city workspace take-off pad used whenever a Spec does
// not pin the initial position.
var defaultStart = geom.V(3, 3, 2)

// Validate checks that the Spec is internally consistent. It is cheap — no
// stack is assembled — so registries and grid builders can validate whole
// catalogs eagerly.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %q: duration %v must be positive", s.Name, s.Duration)
	}
	if len(s.Targets) == 0 && !s.RandomTargets {
		return fmt.Errorf("scenario %q: no targets and RandomTargets not set", s.Name)
	}
	if len(s.Targets) > 0 && s.RandomTargets {
		return fmt.Errorf("scenario %q: fixed Targets and RandomTargets are mutually exclusive", s.Name)
	}
	if s.InitialBattery < 0 || s.InitialBattery > 1 {
		return fmt.Errorf("scenario %q: initial battery %v outside [0, 1]", s.Name, s.InitialBattery)
	}
	if s.DrainMultiple < 0 {
		return fmt.Errorf("scenario %q: drain multiple %v must be non-negative", s.Name, s.DrainMultiple)
	}
	if s.Hysteresis > 0 && s.Hysteresis < 1 {
		return fmt.Errorf("scenario %q: hysteresis %v must be >= 1 (zero selects the default)", s.Name, s.Hysteresis)
	}
	if s.MotionDelta < 0 {
		return fmt.Errorf("scenario %q: motion delta %v must not be negative", s.Name, s.MotionDelta)
	}
	if s.JitterProb < 0 || s.JitterProb > 1 {
		return fmt.Errorf("scenario %q: jitter probability %v outside [0, 1]", s.Name, s.JitterProb)
	}
	if s.PlannerBugRate < 0 || s.PlannerBugRate > 1 {
		return fmt.Errorf("scenario %q: planner bug rate %v outside [0, 1]", s.Name, s.PlannerBugRate)
	}
	if s.LearnedBadFraction < 0 || s.LearnedBadFraction > 1 {
		return fmt.Errorf("scenario %q: learned bad fraction %v outside [0, 1]", s.Name, s.LearnedBadFraction)
	}
	if s.Faults.Active() && s.Faults.First < 0 {
		return fmt.Errorf("scenario %q: fault profile First %v must be non-negative", s.Name, s.Faults.First)
	}
	if s.SwitchPolicy != "" {
		pol, err := rta.ParsePolicy(s.SwitchPolicy)
		if err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		// One-way switching ablates the Figure 9 return path specifically;
		// its latch gates φsafer, which a custom policy may never consult
		// (always-ac would re-engage straight past it). Reject the
		// combination here so jobs fail at submit, not mid-fleet.
		if s.OneWaySwitching && pol.Name() != rta.DefaultPolicyName {
			return fmt.Errorf("scenario %q: OneWaySwitching is defined for the default %s policy only, not %q",
				s.Name, rta.DefaultPolicyName, s.SwitchPolicy)
		}
	}
	return nil
}

// workspace resolves the Spec's workspace factory.
func (s Spec) workspace() *geom.Workspace {
	if s.Workspace != nil {
		return s.Workspace()
	}
	return geom.CityWorkspace()
}

// start resolves the initial position.
func (s Spec) start() geom.Vec3 {
	if s.Start != (geom.Vec3{}) {
		return s.Start
	}
	if len(s.Targets) > 0 {
		return s.Targets[0]
	}
	return defaultStart
}

// resolved is the mission a Spec denotes, with every "zero means default"
// knob replaced by the value that runs. StackConfig and Canonical both read
// it, so a fingerprint names exactly the mission Build compiles.
type resolved struct {
	// stack is the stack configuration short of the seed and the fault
	// windows, which depend on the seed. Its SwitchPolicy is canonical.
	stack mission.StackConfig
	// drain is the battery drain multiple already applied to
	// stack.PlantParams.
	drain float64
	// start and battery are the initial position and charge.
	start   geom.Vec3
	battery float64
}

// resolve validates the Spec and resolves it: a knob the Spec leaves zero
// takes its value from mission.DefaultStackConfig, the one table of stack
// defaults.
func (s Spec) resolve() (resolved, error) {
	if err := s.Validate(); err != nil {
		return resolved{}, err
	}
	pol, err := rta.CanonicalPolicySpec(s.SwitchPolicy)
	if err != nil {
		return resolved{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	r := resolved{stack: mission.DefaultStackConfig(0), drain: 1, start: s.start(), battery: 1}
	cfg := &r.stack
	cfg.Workspace = s.workspace()
	if s.DrainMultiple > 0 {
		r.drain = s.DrainMultiple
	}
	cfg.PlantParams.IdleDrainPerSec *= r.drain
	cfg.PlantParams.AccelDrainPerSec *= r.drain
	if s.InitialBattery > 0 {
		r.battery = s.InitialBattery
	}
	cfg.WithPlannerModule = !s.NoPlannerModule
	cfg.WithBatteryModule = !s.NoBatteryModule
	cfg.OneWaySwitching = s.OneWaySwitching
	cfg.SwitchPolicy = pol
	cfg.PlannerBug = s.PlannerBug
	cfg.PlannerBugRate = s.PlannerBugRate
	switch {
	case s.PlannerBug != plan.BugSkipEdgeCheck:
		cfg.PlannerBugRate = 0 // no other bug reads the rate
	case s.PlannerBugRate == 0:
		cfg.PlannerBugRate = plan.DefaultBugRate
	}
	if s.Protection != 0 {
		cfg.Protection = s.Protection
	}
	if s.AC != 0 {
		cfg.AC = s.AC
	}
	if s.LearnedBadFraction > 0 {
		cfg.LearnedBadFraction = s.LearnedBadFraction
	}
	if s.MotionDelta > 0 {
		cfg.MotionDelta = s.MotionDelta
	}
	if s.Hysteresis > 0 {
		cfg.Hysteresis = s.Hysteresis
	}
	if s.PlanMargin > 0 {
		cfg.PlanMargin = s.PlanMargin
	}
	if s.RandomTargets {
		cfg.App = mission.AppConfig{Random: true}
	} else {
		cfg.App = mission.AppConfig{Points: slices.Clone(s.Targets)}
	}
	return r, nil
}

// seeded completes a resolved stack configuration with the seed and the
// fault windows the seed places.
func (s Spec) seeded(r resolved, seed int64) mission.StackConfig {
	cfg := r.stack
	cfg.Seed = seed
	cfg.ACFaults = s.Faults.windows(seed, s.Duration)
	return cfg
}

// StackConfig compiles the Spec into the mission-stack configuration it
// denotes, without building the stack. Build is the one-call path; this is
// exposed for callers that want to tweak the stack further.
func (s Spec) StackConfig(seed int64) (mission.StackConfig, error) {
	r, err := s.resolve()
	if err != nil {
		return mission.StackConfig{}, err
	}
	return s.seeded(r, seed), nil
}

// Build compiles the Spec into a ready closed-loop run configuration: it
// validates, assembles the mission stack and fills in the initial state and
// run knobs. Every stochastic component is seeded from the single seed, so
// the same (Spec, seed) pair always denotes the same mission.
func (s Spec) Build(seed int64) (sim.RunConfig, error) {
	return s.BuildWith(seed, nil)
}

// BuildWith compiles like Build but hands the compiled StackConfig to tweak
// before the stack is assembled. It is the seam between the declarative spec
// layer and callers that need a sampled variation of a spec — the
// certification layer thins the fault-window schedule here for its sporadic
// fault model and importance-sampled runs. A nil tweak is exactly Build.
// Tweaked runs are NOT covered by the spec's canonical fingerprint; callers
// own any caching of their variations.
func (s Spec) BuildWith(seed int64, tweak func(*mission.StackConfig)) (sim.RunConfig, error) {
	r, err := s.resolve()
	if err != nil {
		return sim.RunConfig{}, err
	}
	cfg := s.seeded(r, seed)
	if tweak != nil {
		tweak(&cfg)
	}
	st, err := mission.Build(cfg)
	if err != nil {
		return sim.RunConfig{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return sim.RunConfig{
		Stack:        st,
		Initial:      plant.State{Pos: r.start, Battery: r.battery},
		Duration:     s.Duration,
		Seed:         seed,
		JitterProb:   s.JitterProb,
		JitterSCOnly: s.JitterSCOnly,
	}, nil
}

// Override is a named transformation of a Spec — the unit of the cartesian
// sweeps built by fleet.ScenarioGrid and of the experiment rewrites, which
// declare each configuration as a base scenario plus an override.
type Override struct {
	// Name labels the override in mission names ("spec+override/seed-N").
	// Empty leaves the Spec's name untouched.
	Name string
	// Apply mutates the Spec copy; nil is the identity.
	Apply func(*Spec)
}

// With returns a deep-enough copy of the Spec with the override applied and
// the override's name folded into the Spec name. The receiver is not
// modified.
func (s Spec) With(ov Override) Spec {
	out := s
	out.Targets = slices.Clone(s.Targets)
	if ov.Apply != nil {
		ov.Apply(&out)
	}
	if ov.Name != "" {
		out.Name = s.Name + "+" + ov.Name
	}
	return out
}

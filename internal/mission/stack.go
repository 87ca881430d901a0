package mission

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/battery"
	"repro/internal/controller"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/plan"
	"repro/internal/plant"
	"repro/internal/reach"
	"repro/internal/rta"
)

// ProtectionMode selects how the motion-primitive layer is deployed — the
// three configurations compared by the Figure 12a timing experiment.
type ProtectionMode int

// Protection modes.
const (
	// ProtectRTA wraps the untrusted AC in an RTA module (the SOTER stack).
	ProtectRTA ProtectionMode = iota + 1
	// ProtectACOnly runs the untrusted AC alone (fast, can collide).
	ProtectACOnly
	// ProtectSCOnly runs the certified SC alone (safe, slow).
	ProtectSCOnly
)

// protectionNames spells each ProtectionMode; String and ParseProtection
// are its only readers.
var protectionNames = [...]string{
	ProtectRTA:    "rta",
	ProtectACOnly: "ac-only",
	ProtectSCOnly: "sc-only",
}

// String implements fmt.Stringer.
func (m ProtectionMode) String() string {
	return enumName(protectionNames[:], int(m), "ProtectionMode")
}

// ParseProtection is the inverse of ProtectionMode.String.
func ParseProtection(name string) (ProtectionMode, error) {
	i, err := parseEnum(protectionNames[:], name, "protection")
	return ProtectionMode(i), err
}

// ACKind selects the untrusted advanced motion primitive.
type ACKind int

// Advanced-controller kinds.
const (
	// ACAggressive is the PX4-like time-optimised primitive (Figure 5 right).
	ACAggressive ACKind = iota + 1
	// ACLearned is the data-driven primitive (Figure 5 left).
	ACLearned
)

// acNames spells each ACKind; String and ParseACKind are its only readers.
var acNames = [...]string{
	ACAggressive: "aggressive",
	ACLearned:    "learned",
}

// String implements fmt.Stringer.
func (k ACKind) String() string { return enumName(acNames[:], int(k), "ACKind") }

// ParseACKind is the inverse of ACKind.String.
func ParseACKind(name string) (ACKind, error) {
	i, err := parseEnum(acNames[:], name, "ac")
	return ACKind(i), err
}

// enumName looks v up in a names table whose zero slot is unnamed.
func enumName(names []string, v int, typ string) string {
	if v > 0 && v < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", typ, v)
}

// parseEnum finds name in a names table whose zero slot is unnamed.
func parseEnum(names []string, name, what string) (int, error) {
	for i, n := range names {
		if i > 0 && n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (want %s)", what, name, strings.Join(names[1:], " | "))
}

// The node periods of the stack, as in the paper's setup.
const (
	// primitivePeriod is the period of the AC/SC motion-primitive nodes
	// and of the waypoint manager.
	primitivePeriod = 20 * time.Millisecond
	// plannerDelta is Δ of the planner module and the planner nodes' period.
	plannerDelta = 500 * time.Millisecond
	// batteryDelta is Δ of the battery-safety module.
	batteryDelta = 2 * time.Second
)

// StackConfig configures the full RTA-protected surveillance stack of
// Figure 8 (or its unprotected baselines). DefaultStackConfig is the one
// table of its defaults: Build takes every other field as given, so a
// configuration starts from that table and changes what it needs.
type StackConfig struct {
	// Workspace is the obstacle map; nil selects geom.CityWorkspace().
	Workspace *geom.Workspace
	// PlantParams are the drone's physical parameters.
	PlantParams plant.Params
	// Margin is the drone bounding radius used in all clearance checks.
	Margin float64
	// PlanMargin is the clearance planners aim for. Workloads whose
	// waypoints intentionally hug obstacles set it below the default.
	PlanMargin float64
	// MotionDelta is Δ of the motion-primitive module.
	MotionDelta time.Duration
	// Hysteresis scales the φsafer horizon (Remark 3.3 trade-off).
	Hysteresis float64
	// Protection selects RTA / AC-only / SC-only for the motion layer.
	Protection ProtectionMode
	// AC selects the untrusted motion primitive; ACFaults optionally
	// injects faults into it.
	AC       ACKind
	ACFaults []controller.Fault
	// LearnedBadFraction is the corrupted-cell fraction for ACLearned.
	LearnedBadFraction float64
	// WithPlannerModule enables the RTA-protected planner (Section V-C);
	// PlannerBug selects the defect injected into the RRT* AC planner.
	WithPlannerModule bool
	PlannerBug        plan.Bug
	PlannerBugRate    float64
	// WithBatteryModule enables the battery-safety module (Section V-B).
	WithBatteryModule bool
	// OneWaySwitching disables the SC→AC return of the motion module — the
	// classic Simplex baseline for the switching ablation.
	OneWaySwitching bool
	// SwitchPolicy names the motion-primitive module's switching policy in
	// rta's policy table ("soter-fig9", "sticky-sc:25", "hysteresis",
	// "always-ac", "always-sc"); empty selects the paper's Figure 9 rules.
	// The planner and battery modules always run the default policy — the
	// policy axis ablates the motion layer, the module the paper's switching
	// discussion is about. Safety is policy-independent: the module clamps
	// any policy output to SC whenever ttf2Δ fails.
	SwitchPolicy string
	// App is the surveillance application's tour; Build hands the
	// application this config's workspace, margin and seed.
	App AppConfig
	// Seed drives every stochastic component.
	Seed int64
}

// DefaultStackConfig returns the configuration used throughout the
// evaluation, mirroring the paper's setup.
func DefaultStackConfig(seed int64) StackConfig {
	const margin = 0.45
	return StackConfig{
		PlantParams: plant.DefaultParams(),
		Margin:      margin,
		// Planners aim for more clearance than the safety margin: a
		// reference path that hugs obstacles at exactly the margin keeps the
		// drone inside the DM's switching band, forcing needless
		// disengagements. The safety checks (module predicates, φplan
		// validation) still use Margin.
		PlanMargin:         margin + 0.8,
		MotionDelta:        100 * time.Millisecond,
		Hysteresis:         2.0,
		Protection:         ProtectRTA,
		AC:                 ACAggressive,
		LearnedBadFraction: 0.12,
		WithPlannerModule:  true,
		WithBatteryModule:  true,
		Seed:               seed,
	}
}

// Stack is the assembled system plus the handles the simulator and
// benchmarks need.
type Stack struct {
	System   *rta.System
	Analyzer *reach.Analyzer
	Monitor  *battery.Monitor // nil without the battery module
	// Modules by role (nil when the role is unprotected/absent).
	PrimitiveModule *rta.Module
	PlannerModule   *rta.Module
	BatteryModule   *rta.Module
	// AppNode gives metrics access to the surveillance progress.
	AppNode *node.Node
	// Config echoes the configuration.
	Config StackConfig

	// ran is set by the first Claim.
	ran atomic.Bool
}

// ErrStackUsed is Claim's error for a stack that already ran.
var ErrStackUsed = errors.New("stack already ran; build a fresh stack for every run")

// Claim marks the stack as run and returns ErrStackUsed when it already
// was. A stack runs once: its planners and node closures keep state across
// runs (RNG draws, plan caches), so a second run over it would continue
// from where the first ended instead of repeating it.
func (s *Stack) Claim() error {
	if s.ran.Swap(true) {
		return ErrStackUsed
	}
	return nil
}

// ReachBounds derives the reachability analysis's actuation bounds from the
// plant's. The braking deceleration assumes the lagged plant achieves at
// least 80% of MaxAccel within a small fraction of a braking maneuver (see
// plant.Params.LagTau); this is the one place that assumption is stated.
func ReachBounds(p plant.Params) reach.Bounds {
	return reach.Bounds{MaxAccel: p.MaxAccel, MaxVel: p.MaxVel, BrakeDecel: 0.8 * p.MaxAccel}
}

// MotionAnalyzer builds the motion-primitive module's reachability analyzer
// for cfg: over the analysis workspace of cfg.Workspace (which must be set),
// with the plant's ReachBounds and cfg's Margin, MotionDelta and Hysteresis.
// Build constructs every stack's analyzer through it, so an analysis of the
// motion module outside a stack (Figure 10, the multi-drone example) that
// starts from DefaultStackConfig gets the analyzer the missions run.
func MotionAnalyzer(cfg StackConfig) (*reach.Analyzer, error) {
	aws, err := analysisWorkspace(cfg.Workspace)
	if err != nil {
		return nil, err
	}
	return analyzerOver(aws, cfg)
}

// analyzerOver builds cfg's motion-module analyzer over the given workspace.
func analyzerOver(ws *geom.Workspace, cfg StackConfig) (*reach.Analyzer, error) {
	return reach.NewAnalyzer(ws, ReachBounds(cfg.PlantParams), cfg.Margin, cfg.MotionDelta, cfg.Hysteresis)
}

// analysisWorkspace derives the workspace used by the motion-primitive
// safety analysis from the physical one: identical obstacles, but the floor
// is lowered slightly. The ground is landable — touchdown happens at the
// GroundZ altitude, above the geo-fenced band — so the motion module's
// floor margin must sit below the touchdown altitude, while still switching
// to SC before any dive can reach the actual ground. Side and top bounds are
// enforced unchanged.
func analysisWorkspace(ws *geom.Workspace) (*geom.Workspace, error) {
	b := ws.Bounds()
	b.Min.Z -= 0.25
	return geom.NewWorkspace(b, ws.ObstaclesView())
}

// landingWorkspace derives the workspace used by the motion module while a
// landing plan is active: obstacles and side/top bounds are protected, but
// the floor is lowered out of reach so the certified lander's intentional
// descent is not fenced off. Ground contact during landing is owned by the
// battery-safety argument and the touchdown logic.
func landingWorkspace(ws *geom.Workspace) (*geom.Workspace, error) {
	b := ws.Bounds()
	b.Min.Z -= 8
	return geom.NewWorkspace(b, ws.ObstaclesView())
}

// Build assembles the stack. It fills in no stack default but a nil
// workspace: a value the components cannot use (Δ ≤ 0, hysteresis < 1, an
// unknown protection mode or AC kind, a non-positive plan margin, a zero
// skip-edge-check rate) is an error. The components take no defaults of
// their own: what does not vary between stacks is a constant of the
// component, and Build passes the rest.
func Build(cfg StackConfig) (*Stack, error) { return build(cfg, true) }

// build is Build with the process-wide artifact pool on or off. A build off
// the pool constructs its analyzers, grids and planners from scratch. Pooled
// and fresh builds are behaviourally identical (the pooling test holds them
// byte for byte equal); the pool only saves the rebuild cost of
// back-to-back missions over the same geometry.
func build(cfg StackConfig, pooled bool) (*Stack, error) {
	if cfg.Workspace == nil {
		cfg.Workspace = geom.CityWorkspace()
	}
	if err := cfg.PlantParams.Validate(); err != nil {
		return nil, fmt.Errorf("stack: %w", err)
	}
	if cfg.PlanMargin <= 0 {
		return nil, fmt.Errorf("stack: plan margin %v must be positive", cfg.PlanMargin)
	}

	limits := controller.Limits{
		MaxAccel: cfg.PlantParams.MaxAccel,
		MaxVel:   cfg.PlantParams.MaxVel,
	}
	// Seed-independent artifacts (derived workspaces, analyzers, the
	// certified A* planner) are pure functions of geometry and safety
	// parameters, so sweep missions share one pooled set instead of
	// rebuilding per mission. On a hit the canonical workspace instance also
	// replaces cfg.Workspace, so every mission reuses its query indexes.
	key := artifactKeyFor(cfg)
	var arts *artifacts
	if pooled {
		arts = sharedArtifacts.get(key, cfg.Workspace)
	}
	if arts == nil {
		var err error
		arts, err = buildArtifacts(cfg)
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		if pooled {
			sharedArtifacts.put(key, arts)
		}
	}
	cfg.Workspace = arts.ws
	analyzer := arts.analyzer
	landingAnalyzer := arts.landingAnalyzer

	st := &Stack{Analyzer: analyzer, Config: cfg}
	var modules []*rta.Module
	var plain []*node.Node

	// --- Application layer -------------------------------------------------
	appNode, err := newAppNode(cfg.App, cfg.Workspace, cfg.Margin, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("stack: %w", err)
	}
	st.AppNode = appNode
	plain = append(plain, appNode)

	// --- Motion planner layer ----------------------------------------------
	if cfg.WithPlannerModule {
		if cfg.PlannerBug == plan.BugSkipEdgeCheck && cfg.PlannerBugRate <= 0 {
			return nil, fmt.Errorf("stack: planner bug %v needs a positive rate, not %v", cfg.PlannerBug, cfg.PlannerBugRate)
		}
		// The untrusted RRT* exists only as the module's AC: planner-off
		// stacks never sample, so they never build one.
		rrt, err := plan.NewRRTStar(cfg.Workspace, plan.RRTStarConfig{
			Margin:  cfg.PlanMargin,
			Seed:    cfg.Seed,
			Bug:     cfg.PlannerBug,
			BugRate: cfg.PlannerBugRate,
		})
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		// The untrusted planner redraws every period so a defective plan is
		// transient rather than cached forever.
		acPlanner, err := plannerNode("planner.ac", rrt, cfg.PlannerBug != plan.BugNone)
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		scPlanner, err := plannerNode("planner.sc", arts.astar, false)
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		pm, err := plannerModule(acPlanner, scPlanner, cfg.Workspace, cfg.Margin, cfg.PlantParams.MaxVel)
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		st.PlannerModule = pm
		modules = append(modules, pm)
	} else {
		// Unprotected: the certified planner runs alone (keeps baselines
		// focused on the motion layer).
		p, err := plannerNode("planner", arts.astar, false)
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		plain = append(plain, p)
	}

	// --- Battery layer ------------------------------------------------------
	if cfg.WithBatteryModule {
		mon, err := battery.NewMonitor(battery.Config{
			Params:    cfg.PlantParams,
			Delta:     batteryDelta,
			MaxHeight: cfg.Workspace.Bounds().Max.Z,
		})
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		st.Monitor = mon
		acB, err := batteryACNode("battery.ac")
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		// The lander descends to the altitude at which the plant touches
		// down.
		scB, err := batteryLanderNode("battery.sc", cfg.PlantParams.GroundZ)
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		bm, err := batteryModule(acB, scB, mon)
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		st.BatteryModule = bm
		modules = append(modules, bm)
	} else {
		fwd, err := batteryACNode("planfwd")
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		plain = append(plain, fwd)
	}

	// --- Waypoint manager ----------------------------------------------------
	wpm, err := waypointManagerNode()
	if err != nil {
		return nil, fmt.Errorf("stack: %w", err)
	}
	plain = append(plain, wpm)

	// --- Motion primitive layer ----------------------------------------------
	ac, err := buildAC(cfg, limits)
	if err != nil {
		return nil, fmt.Errorf("stack: %w", err)
	}
	sc := controller.NewSafe(analyzer, limits, primitivePeriod)
	policy, err := rta.ParsePolicy(cfg.SwitchPolicy)
	if err != nil {
		return nil, fmt.Errorf("stack: switch policy: %w", err)
	}
	switch cfg.Protection {
	case ProtectRTA:
		acNode, err := primitiveNode("mpr.ac", ac)
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		scNode, err := primitiveNode("mpr.sc", sc)
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		pm, err := primitiveModule(acNode, scNode, analyzer, landingAnalyzer, cfg.OneWaySwitching, policy)
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		st.PrimitiveModule = pm
		modules = append(modules, pm)
	case ProtectACOnly:
		n, err := primitiveNode("mpr", ac)
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		plain = append(plain, n)
	case ProtectSCOnly:
		n, err := primitiveNode("mpr", sc)
		if err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		plain = append(plain, n)
	default:
		return nil, fmt.Errorf("stack: unknown protection mode %v", cfg.Protection)
	}

	sys, err := rta.NewSystem(modules, plain)
	if err != nil {
		return nil, fmt.Errorf("stack: %w", err)
	}
	st.System = sys
	return st, nil
}

// buildAC constructs the configured untrusted advanced controller, with
// fault injection when requested.
func buildAC(cfg StackConfig, limits controller.Limits) (controller.Controller, error) {
	var ac controller.Controller
	switch cfg.AC {
	case ACAggressive:
		ac = controller.NewAggressive(limits)
	case ACLearned:
		ac = controller.NewLearned(limits, cfg.LearnedBadFraction, cfg.Seed)
	default:
		return nil, fmt.Errorf("unknown AC kind %v", cfg.AC)
	}
	if len(cfg.ACFaults) > 0 {
		ac = controller.WithFaults(ac, limits, cfg.ACFaults)
	}
	return ac, nil
}

// Certificates builds the per-module certificates discharging (P2a), (P2b),
// (P3) for every module in the stack, keyed by module name — the input to
// rta.System.VerifyAll.
func (st *Stack) Certificates(samples int) (map[string]rta.Certificate, error) {
	certs := make(map[string]rta.Certificate)
	if st.PrimitiveModule != nil {
		limits := controller.Limits{
			MaxAccel: st.Config.PlantParams.MaxAccel,
			MaxVel:   st.Config.PlantParams.MaxVel,
		}
		sc := controller.NewSafe(st.Analyzer, limits, primitivePeriod)
		cert, err := reach.NewCertificate(reach.CertConfig{
			Analyzer: st.Analyzer,
			SCStep:   sc.ClosedLoopStep(),
			SCPeriod: primitivePeriod,
			Samples:  samples,
			Seed:     st.Config.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("primitive certificate: %w", err)
		}
		certs[st.PrimitiveModule.Name()] = cert
	}
	if st.BatteryModule != nil {
		certs[st.BatteryModule.Name()] = batteryCertificate(st.Monitor)
	}
	if st.PlannerModule != nil {
		certs[st.PlannerModule.Name()] = plannerCertificate(st.Config)
	}
	return certs, nil
}

// batteryCertificate discharges the battery module's obligations with
// closed-form arguments over the discharge model.
func batteryCertificate(mon *battery.Monitor) rta.Certificate {
	return reach.StaticCertificate{
		// (P2a): under the landing SC, charge only decreases by at most
		// Tmax before touchdown; the switch fired while bt ≥ Tmax + cost*,
		// so bt > 0 throughout: φsafe is invariant.
		P2a: func() error {
			if mon.Tmax() <= 0 {
				return fmt.Errorf("non-positive landing budget Tmax")
			}
			return nil
		},
		// (P2b): φsafer = bt > 85% requires recharge; the obligation is
		// vacuous in-flight (the paper's module stays in SC after landing,
		// returning to AC only when "sufficiently charged").
		P2b: func() error { return nil },
		// (P3): from bt > 85%, any control discharges at most cost* ≪ 85%
		// over 2Δ, so bt > 0 still holds.
		P3: func() error {
			if mon.CostStar() >= mon.SaferThreshold() {
				return fmt.Errorf("cost* = %v exceeds φsafer threshold %v", mon.CostStar(), mon.SaferThreshold())
			}
			return nil
		},
	}
}

// plannerCertificate discharges the planner module's obligations: the SC is
// the certified A* planner whose every output is validated (safe by
// construction), giving (P2a) and (P2b); (P3) follows from the 2Δ·vmax
// travel-distance guard in the module's predicates.
func plannerCertificate(cfg StackConfig) rta.Certificate {
	return reach.StaticCertificate{
		P2a: func() error { return nil },
		P2b: func() error { return nil },
		P3: func() error {
			if cfg.PlantParams.MaxVel <= 0 {
				return fmt.Errorf("MaxVel must be positive")
			}
			return nil
		},
	}
}

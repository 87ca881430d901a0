// Command soter-sim runs a named scenario from the declarative workload
// registry (internal/scenario) in the closed-loop simulator and reports the
// paper's metrics (disengagements, AC-control fraction, safety outcome). It
// can optionally dump the flown trajectory as CSV for plotting the Figure 12
// style figures.
//
// Flags other than -scenario act as overrides: only the flags explicitly set
// on the command line are applied on top of the selected scenario's Spec.
//
// With -trace the full typed event stream of the run — node firings, mode
// switches, time progress, trajectory and battery samples, crashes,
// touchdowns — is written as JSON Lines (one object per line, "kind"
// discriminator) for offline analysis and replay. SIGINT/SIGTERM cancel the
// run gracefully: the metrics accumulated so far still print and the trace
// file is flushed, instead of losing everything.
//
// Usage:
//
//	soter-sim [flags]
//
// Examples:
//
//	soter-sim -list-scenarios
//	soter-sim -scenario canyon-corridor -duration 1m
//	soter-sim -scenario surveillance-city -protection ac-only
//	soter-sim -scenario surveillance-city -policy sticky-sc:25
//	soter-sim -planner-bug skip-edge-check -random-targets
//	soter-sim -csv trajectory.csv
//	soter-sim -trace run.jsonl
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rta"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("soter-sim: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		scenarioName = flag.String("scenario", "surveillance-city", "named scenario from the registry (see -list-scenarios)")
		list         = flag.Bool("list-scenarios", false, "print the scenario catalog and exit")
		seed         = flag.Int64("seed", 1, "simulation seed")
		duration     = flag.Duration("duration", 2*time.Minute, "mission duration")
		protection   = flag.String("protection", "rta", "motion layer: rta | ac-only | sc-only")
		acKind       = flag.String("ac", "aggressive", "advanced controller: aggressive | learned")
		faults       = flag.Bool("faults", false, "inject periodic full-thrust faults into the AC")
		plannerBug   = flag.String("planner-bug", "none", "RRT* defect: none | skip-edge-check | unchecked-shortcut | stale-obstacles")
		random       = flag.Bool("random-targets", false, "draw random surveillance targets (Section V-D style)")
		battery      = flag.Float64("battery", 1.0, "initial battery charge fraction")
		drainX       = flag.Float64("drain", 1.0, "battery drain multiplier")
		jitter       = flag.Float64("jitter", 0, "per-firing probability of a scheduling outage (SC/DM nodes)")
		delta        = flag.Duration("delta", 100*time.Millisecond, "motion-primitive DM period Δ")
		hysteresis   = flag.Float64("hysteresis", 2.0, "φsafer horizon multiplier")
		policy       = flag.String("policy", "soter-fig9", "switching policy spec: "+strings.Join(rta.PolicyNames(), " | ")+" (optionally name:K)")
		csvPath      = flag.String("csv", "", "write the flown trajectory to this CSV file")
		tracePath    = flag.String("trace", "", "write the run's event stream to this JSONL file")
	)
	flag.Parse()

	if *list {
		printCatalog()
		return nil
	}
	spec, ok := scenario.Get(*scenarioName)
	if !ok {
		return fmt.Errorf("unknown scenario %q (have: %s)", *scenarioName, strings.Join(scenario.Names(), ", "))
	}

	// Apply only the flags the user actually set as Spec overrides.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["duration"] {
		spec.Duration = *duration
	}
	if set["protection"] {
		switch *protection {
		case "rta":
			spec.Protection = mission.ProtectRTA
		case "ac-only":
			spec.Protection = mission.ProtectACOnly
		case "sc-only":
			spec.Protection = mission.ProtectSCOnly
		default:
			return fmt.Errorf("unknown -protection %q", *protection)
		}
	}
	if set["ac"] {
		switch *acKind {
		case "aggressive":
			spec.AC = mission.ACAggressive
		case "learned":
			spec.AC = mission.ACLearned
		default:
			return fmt.Errorf("unknown -ac %q", *acKind)
		}
	}
	if set["planner-bug"] {
		switch *plannerBug {
		case "none":
			spec.PlannerBug, spec.PlannerBugRate = plan.BugNone, 0
		case "skip-edge-check":
			spec.PlannerBug = plan.BugSkipEdgeCheck
		case "unchecked-shortcut":
			spec.PlannerBug = plan.BugUncheckedShortcut
		case "stale-obstacles":
			spec.PlannerBug = plan.BugStaleObstacles
		default:
			return fmt.Errorf("unknown -planner-bug %q", *plannerBug)
		}
	}
	if set["faults"] {
		if *faults {
			spec.Faults = scenario.FaultProfile{
				First: 10 * time.Second,
				Every: 12 * time.Second,
				Len:   1200 * time.Millisecond,
				Dir:   geom.V(1, 0.4, 0),
			}
		} else {
			spec.Faults = scenario.FaultProfile{}
		}
	}
	if set["random-targets"] {
		spec.RandomTargets = *random
		if *random {
			spec.Targets = nil
		} else if len(spec.Targets) == 0 {
			// Turning randomness off on a random-target scenario: fall back
			// to the default city tour rather than an unrunnable Spec.
			spec.Targets = []geom.Vec3{
				geom.V(3, 3, 2), geom.V(46, 3, 2.5), geom.V(46, 46, 2), geom.V(3, 46, 2.5),
			}
		}
	}
	// The Spec layer treats zero as "use the default", so an explicit zero
	// here would be silently ignored — reject it instead.
	if set["battery"] {
		if *battery <= 0 || *battery > 1 {
			return fmt.Errorf("-battery %v outside (0, 1]", *battery)
		}
		spec.InitialBattery = *battery
	}
	if set["drain"] {
		if *drainX <= 0 {
			return fmt.Errorf("-drain %v must be positive", *drainX)
		}
		spec.DrainMultiple = *drainX
	}
	if set["jitter"] {
		spec.JitterProb = *jitter
		spec.JitterSCOnly = true
	}
	if set["delta"] {
		if *delta <= 0 {
			return fmt.Errorf("-delta %v must be positive", *delta)
		}
		spec.MotionDelta = *delta
	}
	if set["hysteresis"] {
		if *hysteresis < 1 {
			// mission.Build silently clamps sub-1 values to the default.
			return fmt.Errorf("-hysteresis %v must be >= 1", *hysteresis)
		}
		spec.Hysteresis = *hysteresis
	}
	if set["policy"] {
		if _, err := rta.ParsePolicy(*policy); err != nil {
			return err
		}
		spec.SwitchPolicy = *policy
	}

	rcfg, err := spec.Build(*seed)
	if err != nil {
		return err
	}
	rcfg.Label = spec.Name

	// SIGINT/SIGTERM cancel the run between executor slices; the partial
	// metrics still print and the trace is flushed below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rcfg.Context = ctx

	traj := &trajectoryCSV{}
	if *csvPath != "" {
		rcfg.Observers = append(rcfg.Observers, traj)
	}
	var trace *obs.JSONLWriter
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		trace = obs.NewJSONLWriter(f)
		rcfg.Observers = append(rcfg.Observers, trace)
	}

	policyName, err := rta.CanonicalPolicySpec(spec.SwitchPolicy)
	if err != nil {
		return err
	}
	fmt.Printf("SOTER simulator — scenario=%s protection=%s ac=%s Δ=%v policy=%s planner-bug=%v jitter=%.4f\n",
		spec.Name, rcfg.Stack.Config.Protection, acName(rcfg.Stack.Config.AC),
		rcfg.Stack.Config.MotionDelta, policyName, spec.PlannerBug, spec.JitterProb)

	res, err := sim.Run(rcfg)
	interrupted := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if err != nil && !interrupted {
		return fmt.Errorf("simulate: %w", err)
	}
	if interrupted {
		fmt.Printf("\ninterrupted at t=%v — partial report:\n", res.Metrics.Duration)
	}

	printMetrics(res)
	if trace != nil {
		if err := trace.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("trace: event stream written to %s\n", *tracePath)
	}
	if *csvPath != "" {
		if err := traj.writeFile(*csvPath); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
		fmt.Printf("trajectory: %d samples written to %s\n", len(traj.rows), *csvPath)
	}
	if res.Metrics.Crashed {
		return fmt.Errorf("CRASH at t=%v pos=%v", res.Metrics.CrashTime, res.Metrics.CrashPos)
	}
	return nil
}

func acName(k mission.ACKind) string {
	if k == mission.ACLearned {
		return "learned"
	}
	return "aggressive"
}

func printCatalog() {
	specs := scenario.All()
	fmt.Printf("%d registered scenarios:\n\n", len(specs))
	for _, s := range specs {
		fmt.Printf("%-22s %s\n", s.Name, s.Description)
		fmt.Printf("%-22s default duration %v\n\n", "", s.Duration)
	}
	fmt.Println("run one with: soter-sim -scenario <name>")
}

func printMetrics(res *sim.Result) {
	m := res.Metrics
	fmt.Printf("\nmission:  %v flown, %.1f m, %d targets visited\n", m.Duration, m.DistanceFlown, m.TargetsVisited)
	fmt.Printf("safety:   crashed=%v collisions=%d min-clearance=%.2f m φInv-violations=%d\n",
		m.Crashed, m.Collisions, m.MinClearance, m.InvariantViolations)
	if m.Landed {
		fmt.Printf("landing:  touched down at t=%v with %.1f%% charge\n", m.LandTime, 100*m.BatteryAtEnd)
	}
	if m.DroppedFirings > 0 {
		fmt.Printf("schedule: %d firings dropped by jitter\n", m.DroppedFirings)
	}
	names := make([]string, 0, len(m.Modules))
	for name := range m.Modules {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		s := m.Modules[name]
		fmt.Printf("module %-22s disengagements=%-3d re-engagements=%-3d AC-control=%.1f%%\n",
			name, s.Disengagements, s.Reengagements, 100*s.ACFraction())
	}
}

// csvGrid is the trajectory CSV's sampling period.
const csvGrid = 100 * time.Millisecond

// trajectoryCSV keeps the rows of the trajectory CSV from the run's event
// stream: the trajectory sample on every 100 ms grid point, the sample at
// which a crash or touchdown happens, and the final sample of a run whose
// deadline falls between grid points.
type trajectoryCSV struct {
	rows []obs.TrajectorySample
	last obs.TrajectorySample
}

// Interests implements obs.Interested.
func (c *trajectoryCSV) Interests() obs.KindSet {
	return obs.Kinds(obs.KindTrajectorySample, obs.KindCrash, obs.KindLanded, obs.KindRunEnd)
}

// OnEvent implements obs.Observer.
func (c *trajectoryCSV) OnEvent(e obs.Event) {
	switch e := e.(type) {
	case obs.TrajectorySample:
		c.OnTrajectorySample(e)
	case obs.Crash:
		c.keep(c.last)
	case obs.Landed:
		// The touchdown sample precedes the landing; the row shows the
		// landed state.
		c.last.Pos, c.last.Vel = e.Pos, geom.Zero
		c.keep(c.last)
	case obs.RunEnd:
		if c.last.T == e.T {
			c.keep(c.last)
		}
	}
}

// OnTrajectorySample implements obs.TrajectoryObserver.
func (c *trajectoryCSV) OnTrajectorySample(s obs.TrajectorySample) {
	c.last = s
	if s.T%csvGrid == 0 {
		c.keep(s)
	}
}

// keep appends s as a row, or replaces the last row if it is at s.T.
func (c *trajectoryCSV) keep(s obs.TrajectorySample) {
	if n := len(c.rows); n > 0 && c.rows[n-1].T == s.T {
		c.rows[n-1] = s
		return
	}
	c.rows = append(c.rows, s)
}

func (c *trajectoryCSV) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (c *trajectoryCSV) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("t_s,x,y,z,vx,vy,vz,mode\n")
	for _, p := range c.rows {
		bw.WriteString(strconv.FormatFloat(p.T.Seconds(), 'f', 3, 64) + "," +
			coord(p.Pos.X) + "," + coord(p.Pos.Y) + "," + coord(p.Pos.Z) + "," +
			coord(p.Vel.X) + "," + coord(p.Vel.Y) + "," + coord(p.Vel.Z) + "," +
			p.Mode.String() + "\n")
	}
	return bw.Flush()
}

func coord(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

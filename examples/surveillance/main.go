// Command surveillance runs the paper's headline case study (Section II-A,
// Figure 8): an autonomous drone patrols the city workspace under the full
// RTA-protected software stack — safe motion planner (φplan), battery-safety
// module (φbat) and safe motion primitives (φmpr) — while faults are
// injected into the untrusted advanced controller. The run prints the
// mission metrics the paper's evaluation reports: disengagements,
// re-engagements, AC-control fraction and safety outcome, plus the flown
// trajectory's recovery points (the N1/N2 events of Figure 12b).
//
// The workload itself is the registered surveillance-city scenario
// (internal/scenario); this example shows the intended application shape:
// fetch a Spec by name, override what you need, Build, attach observers to
// the event stream, simulate under a cancellable context.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	seed := flag.Int64("seed", 7, "simulation seed")
	duration := flag.Duration("duration", 2*time.Minute, "mission duration")
	faults := flag.Bool("faults", true, "inject full-thrust faults into the advanced controller")
	flag.Parse()
	if err := run(*seed, *duration, *faults); err != nil {
		log.Fatal(err)
	}
}

func run(seed int64, duration time.Duration, withFaults bool) error {
	spec := scenario.MustGet("surveillance-city").With(scenario.Override{Apply: func(sp *scenario.Spec) {
		sp.Duration = duration
		if !withFaults {
			sp.Faults = scenario.FaultProfile{}
		}
	}})
	rcfg, err := spec.Build(seed)
	if err != nil {
		return fmt.Errorf("build scenario: %w", err)
	}

	// Ctrl-C cancels the mission cleanly; the metrics accumulated so far
	// still print below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rcfg.Context = ctx
	// A bounded flight recorder rides along on the event stream.
	rec := obs.NewRecorder(0)
	rcfg.Observers = append(rcfg.Observers, rec)

	st := rcfg.Stack
	fmt.Printf("SOTER drone surveillance — %d obstacles, Δ=%v, faults=%v\n",
		st.Config.Workspace.NumObstacles(), st.Config.MotionDelta, withFaults)

	res, err := sim.Run(rcfg)
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("simulate: %w", err)
		}
		fmt.Printf("\ninterrupted — partial mission report:\n")
	}

	m := res.Metrics
	fmt.Printf("\nmission: %v flown, %.1f m, %d surveillance targets visited\n",
		m.Duration, m.DistanceFlown, m.TargetsVisited)
	fmt.Printf("safety:  crashed=%v  min clearance=%.2f m  φInv violations=%d\n",
		m.Crashed, m.MinClearance, m.InvariantViolations)
	fmt.Println("\nper-module runtime assurance:")
	for _, mod := range []string{"safe-motion-primitive", "safe-motion-planner", "battery-safety"} {
		s := m.Modules[mod]
		fmt.Printf("  %-22s disengagements=%-3d re-engagements=%-3d AC-control=%.1f%%\n",
			mod, s.Disengagements, s.Reengagements, 100*s.ACFraction())
	}

	fmt.Println("\nSC take-over events (the N1/N2 recovery points of Figure 12b):")
	n := 0
	for _, sw := range res.Switches {
		if sw.Module == "safe-motion-primitive" && sw.To == rta.ModeSC {
			n++
			fmt.Printf("  N%d at t=%-8v", n, sw.T.Round(10*time.Millisecond))
			if n%3 == 0 {
				fmt.Println()
			}
		}
	}
	if n == 0 {
		fmt.Println("  (none — the advanced controller stayed safe throughout)")
	} else {
		fmt.Println()
	}
	fmt.Printf("\nflight recorder: %d events retained (%d evicted by the bound)\n",
		rec.Len(), rec.Dropped())
	if m.Crashed {
		return fmt.Errorf("drone crashed at t=%v pos=%v", m.CrashTime, m.CrashPos)
	}
	fmt.Println("\nφplan ∧ φmpr ∧ φbat held for the whole mission.")
	return nil
}

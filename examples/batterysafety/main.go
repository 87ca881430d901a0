// Command batterysafety demonstrates the battery-safety RTA module of
// Section V-B (Figure 12c): the drone patrols until the battery falls below
// the threshold bt − cost* < Tmax, at which point the battery decision
// module hands control to the certified landing planner, which aborts the
// mission and lands the drone safely — φbat (never crash from low battery)
// holds even though the mission is untrusted.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/plant"
	"repro/internal/rta"
	"repro/internal/sim"
)

func main() {
	seed := flag.Int64("seed", 11, "simulation seed")
	initialCharge := flag.Float64("battery", 0.92, "initial battery charge fraction")
	flag.Parse()
	if err := run(*seed, *initialCharge); err != nil {
		log.Fatal(err)
	}
}

func run(seed int64, charge float64) error {
	// Drain the battery fast enough that the threshold trips mid-mission.
	params := plant.DefaultParams()
	params.IdleDrainPerSec *= 30
	params.AccelDrainPerSec *= 30

	cfg := mission.DefaultStackConfig(seed)
	cfg.PlantParams = params
	cfg.App = mission.AppConfig{
		Points: []geom.Vec3{
			geom.V(3, 3, 2), geom.V(46, 3, 2), geom.V(46, 46, 2), geom.V(3, 46, 2),
		},
	}
	st, err := mission.Build(cfg)
	if err != nil {
		return fmt.Errorf("build stack: %w", err)
	}
	mon := st.Monitor
	fmt.Printf("battery-safety RTA: Δ=%v  Tmax=%.4f  cost*=%.5f  φsafer: bt > %.0f%%\n",
		mon.Delta(), mon.Tmax(), mon.CostStar(), 100*mon.SaferThreshold())
	fmt.Printf("switch condition trips at bt < Tmax + cost* = %.4f\n\n", mon.Tmax()+mon.CostStar())

	res, err := sim.Run(sim.RunConfig{
		Stack:           st,
		Initial:         plant.State{Pos: geom.V(3, 3, 2), Battery: charge},
		Duration:        10 * time.Minute,
		Seed:            seed,
		CheckInvariants: true,
	})
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}

	m := res.Metrics
	for _, sw := range res.Switches {
		if sw.Module == "battery-safety" && sw.To == rta.ModeSC {
			fmt.Printf("t=%-8v battery DM detected low charge → certified lander engaged\n",
				sw.T.Round(10*time.Millisecond))
		}
	}
	fmt.Printf("\noutcome: landed=%v at t=%v  crashed=%v  battery at end=%.1f%%\n",
		m.Landed, m.LandTime.Round(10*time.Millisecond), m.Crashed, 100*m.BatteryAtEnd)
	fmt.Printf("mission: %.1f m flown, %d targets visited before the abort\n",
		m.DistanceFlown, m.TargetsVisited)

	if m.Crashed {
		return fmt.Errorf("drone crashed at t=%v — φbat violated", m.CrashTime)
	}
	if !m.Landed {
		return fmt.Errorf("drone neither landed nor crashed within the horizon")
	}
	if m.BatteryAtEnd <= 0 {
		return fmt.Errorf("battery hit zero before touchdown — φbat violated")
	}
	fmt.Println("\nφbat held: the drone prioritised landing safely over the mission.")
	return nil
}
